//! A small algebraic optimizer: selection pushdown and reshape fusion.
//!
//! ALGRES is main-memory, so the dominant cost is intermediate-result size;
//! pushing selections below joins, products and unions is the classical
//! rewrite that attacks it. The E10 benchmark runs the football workload
//! with and without this pass, and the engine's compiled evaluation path
//! runs it over every rule plan.
//!
//! [`fuse_reshapes`] attacks the other main-memory tax: every compiled rule
//! plan tops out in a `Rename* ∘ Project ∘ Extend*/Select*` chain that
//! rebuilds each tuple several times just to reach head layout. The pass
//! collapses such a chain into one [`AlgExpr::Emit`] node, which the
//! evaluator executes as a single filter-and-reshape pass — and, when the
//! chain sits on a `Join`, as part of the join probe itself.

use logres_model::Sym;

use crate::expr::{AlgExpr, Pred, Scalar};

/// A column catalog for named relations: tells the optimizer which columns
/// `Rel(name)` produces, so predicates can sink past relation references.
pub type Catalog<'a> = &'a dyn Fn(Sym) -> Option<Vec<Sym>>;

/// Push selections as close to the leaves as legal, without knowledge of
/// named relations' columns (pushdown stops at `Rel` references).
pub fn push_selections(expr: AlgExpr) -> AlgExpr {
    push_selections_with(expr, &|_| None)
}

/// Push selections with a catalog resolving the columns of named relations.
pub fn push_selections_with(expr: AlgExpr, catalog: Catalog<'_>) -> AlgExpr {
    rewrite(expr, catalog)
}

fn rewrite(expr: AlgExpr, catalog: Catalog<'_>) -> AlgExpr {
    match expr {
        AlgExpr::Select { input, pred } => {
            let input = rewrite(*input, catalog);
            let conjuncts = split_and(pred);
            push_conjuncts(input, conjuncts, catalog)
        }
        AlgExpr::Project { input, cols } => AlgExpr::Project {
            input: Box::new(rewrite(*input, catalog)),
            cols,
        },
        AlgExpr::Rename { input, from, to } => AlgExpr::Rename {
            input: Box::new(rewrite(*input, catalog)),
            from,
            to,
        },
        AlgExpr::Product { left, right } => AlgExpr::Product {
            left: Box::new(rewrite(*left, catalog)),
            right: Box::new(rewrite(*right, catalog)),
        },
        AlgExpr::Join { left, right } => AlgExpr::Join {
            left: Box::new(rewrite(*left, catalog)),
            right: Box::new(rewrite(*right, catalog)),
        },
        AlgExpr::Union { left, right } => AlgExpr::Union {
            left: Box::new(rewrite(*left, catalog)),
            right: Box::new(rewrite(*right, catalog)),
        },
        AlgExpr::Diff { left, right } => AlgExpr::Diff {
            left: Box::new(rewrite(*left, catalog)),
            right: Box::new(rewrite(*right, catalog)),
        },
        AlgExpr::Intersect { left, right } => AlgExpr::Intersect {
            left: Box::new(rewrite(*left, catalog)),
            right: Box::new(rewrite(*right, catalog)),
        },
        AlgExpr::SemiJoin { left, right } => AlgExpr::SemiJoin {
            left: Box::new(rewrite(*left, catalog)),
            right: Box::new(rewrite(*right, catalog)),
        },
        AlgExpr::AntiJoin { left, right } => AlgExpr::AntiJoin {
            left: Box::new(rewrite(*left, catalog)),
            right: Box::new(rewrite(*right, catalog)),
        },
        AlgExpr::Extend { input, col, value } => AlgExpr::Extend {
            input: Box::new(rewrite(*input, catalog)),
            col,
            value,
        },
        AlgExpr::Emit { input, pred, cols } => AlgExpr::Emit {
            input: Box::new(rewrite(*input, catalog)),
            pred,
            cols,
        },
        AlgExpr::Nest { input, cols, into } => AlgExpr::Nest {
            input: Box::new(rewrite(*input, catalog)),
            cols,
            into,
        },
        AlgExpr::Unnest { input, col } => AlgExpr::Unnest {
            input: Box::new(rewrite(*input, catalog)),
            col,
        },
        AlgExpr::Aggregate {
            input,
            group,
            agg,
            on,
            into,
        } => AlgExpr::Aggregate {
            input: Box::new(rewrite(*input, catalog)),
            group,
            agg,
            on,
            into,
        },
        leaf @ (AlgExpr::Rel(_) | AlgExpr::Const(_)) => leaf,
    }
}

fn split_and(p: Pred) -> Vec<Pred> {
    match p {
        Pred::And(a, b) => {
            let mut out = split_and(*a);
            out.extend(split_and(*b));
            out
        }
        Pred::True => Vec::new(),
        other => vec![other],
    }
}

/// Columns produced by an expression, when statically known. `None` means
/// "unknown" — pushdown stops there. Named relations resolve through the
/// catalog.
fn out_cols(expr: &AlgExpr, catalog: Catalog<'_>) -> Option<Vec<Sym>> {
    match expr {
        AlgExpr::Rel(name) => catalog(*name),
        AlgExpr::Const(r) => Some(r.cols().to_vec()),
        AlgExpr::Project { cols, .. } => Some(cols.clone()),
        AlgExpr::Rename { input, from, to } => {
            let mut cols = out_cols(input, catalog)?;
            for c in &mut cols {
                if c == from {
                    *c = *to;
                }
            }
            Some(cols)
        }
        AlgExpr::Select { input, .. } => out_cols(input, catalog),
        AlgExpr::Product { left, right } => {
            let mut cols = out_cols(left, catalog)?;
            cols.extend(out_cols(right, catalog)?);
            Some(cols)
        }
        AlgExpr::Join { left, right } => {
            let mut cols = out_cols(left, catalog)?;
            for c in out_cols(right, catalog)? {
                if !cols.contains(&c) {
                    cols.push(c);
                }
            }
            Some(cols)
        }
        AlgExpr::Union { left, .. }
        | AlgExpr::Diff { left, .. }
        | AlgExpr::Intersect { left, .. }
        | AlgExpr::SemiJoin { left, .. }
        | AlgExpr::AntiJoin { left, .. } => out_cols(left, catalog),
        AlgExpr::Extend { input, col, .. } => {
            let mut cols = out_cols(input, catalog)?;
            cols.push(*col);
            Some(cols)
        }
        AlgExpr::Emit { cols, .. } => Some(cols.iter().map(|(c, _)| *c).collect()),
        _ => None,
    }
}

fn push_conjuncts(input: AlgExpr, conjuncts: Vec<Pred>, catalog: Catalog<'_>) -> AlgExpr {
    let mut expr = input;
    let mut remaining = Vec::new();
    for p in conjuncts {
        expr = match try_push(expr, &p, catalog) {
            Ok(e) => e,
            Err(e) => {
                remaining.push(p);
                e
            }
        };
    }
    if remaining.is_empty() {
        expr
    } else {
        AlgExpr::Select {
            input: Box::new(expr),
            pred: Pred::all(remaining),
        }
    }
}

/// Collapse `Rename* ∘ Project ∘ (Project | Extend | Select)*` chains into a
/// single [`AlgExpr::Emit`] node, recursing everywhere else.
///
/// Soundness rules, checked per chain:
/// - the chain root is `Rename*` over a `Project`; every rename must be
///   proper over the project's columns (`from` present, `to` fresh) and the
///   final output names distinct, otherwise the chain is left alone;
/// - below the project, a `Rename` stops the chain (its propriety cannot be
///   checked without the scan schema);
/// - a mid-chain `Project` is skipped only when every column the mapping and
///   predicate reference survives it; its early deduplication is immaterial
///   because the output relation deduplicates on insert and first-occurrence
///   order is preserved;
/// - an `Extend` folds into the mapping by substitution only while no
///   `Select` has been absorbed yet, so absorbing it cannot move the
///   computed column's evaluation across a filter that ran *after* it in
///   the original chain;
/// - absorbed `Select` predicates are prepended to the accumulated
///   predicate, so conjuncts still evaluate bottom-up in the original
///   order.
///
/// The fused plan may fail *less* often than the original on ill-formed
/// plans (it only evaluates the scalars it still references, and only on
/// rows that pass the residual predicate); whenever the original evaluates,
/// the fused plan evaluates to the identical relation, in the same
/// insertion order.
pub fn fuse_reshapes(expr: AlgExpr) -> AlgExpr {
    if let Some(fused) = try_fuse_chain(&expr) {
        return fused;
    }
    fuse_children(expr)
}

/// Try to recognize a reshape chain rooted at `expr`; returns the fused
/// node (with a recursively fused input) when the chain is sound and
/// absorbs at least one stage beyond the project itself.
fn try_fuse_chain(expr: &AlgExpr) -> Option<AlgExpr> {
    // Chain root: renames (outermost first) over a project.
    let mut renames: Vec<(Sym, Sym)> = Vec::new();
    let mut cur = expr;
    while let AlgExpr::Rename { input, from, to } = cur {
        renames.push((*from, *to));
        cur = input;
    }
    let AlgExpr::Project { input, cols } = cur else {
        return None;
    };
    // The renames apply innermost-first to the project's output columns;
    // validate each is proper as it applies.
    let mut names = cols.clone();
    for (from, to) in renames.iter().rev() {
        if !names.contains(from) || names.contains(to) {
            return None;
        }
        for n in &mut names {
            if *n == *from {
                *n = *to;
            }
        }
    }
    let mut distinct = names.clone();
    distinct.sort();
    distinct.dedup();
    if distinct.len() != names.len() {
        return None;
    }
    let mut mapping: Vec<(Sym, Scalar)> = names
        .into_iter()
        .zip(cols.iter().map(|c| Scalar::Col(*c)))
        .collect();

    // Walk below the project, absorbing stages into the mapping/predicate.
    let mut pred = Pred::True;
    let mut saw_select = false;
    let mut absorbed = 0usize;
    let mut cur = input.as_ref();
    loop {
        match cur {
            AlgExpr::Project { input, cols: inner } => {
                let needed = referenced_cols(&mapping, &pred);
                if !needed.iter().all(|c| inner.contains(c)) {
                    break;
                }
                cur = input;
                absorbed += 1;
            }
            AlgExpr::Extend { input, col, value } if !saw_select => {
                for (_, s) in &mut mapping {
                    *s = replace_col_scalar(s, *col, value);
                }
                pred = replace_col_pred(&pred, *col, value);
                cur = input;
                absorbed += 1;
            }
            AlgExpr::Select { input, pred: p } => {
                pred = match pred {
                    Pred::True => p.clone(),
                    acc => Pred::And(Box::new(p.clone()), Box::new(acc)),
                };
                saw_select = true;
                cur = input;
                absorbed += 1;
            }
            _ => break,
        }
    }
    if renames.is_empty() && absorbed == 0 {
        return None;
    }
    Some(AlgExpr::Emit {
        input: Box::new(fuse_reshapes(cur.clone())),
        pred,
        cols: mapping,
    })
}

/// All columns the emit mapping and residual predicate read.
fn referenced_cols(mapping: &[(Sym, Scalar)], pred: &Pred) -> Vec<Sym> {
    let mut out = pred.cols();
    for (_, s) in mapping {
        out.extend(s.cols());
    }
    out
}

/// Rebuild a node with recursively fused children.
fn fuse_children(expr: AlgExpr) -> AlgExpr {
    match expr {
        leaf @ (AlgExpr::Rel(_) | AlgExpr::Const(_)) => leaf,
        AlgExpr::Select { input, pred } => AlgExpr::Select {
            input: Box::new(fuse_reshapes(*input)),
            pred,
        },
        AlgExpr::Project { input, cols } => AlgExpr::Project {
            input: Box::new(fuse_reshapes(*input)),
            cols,
        },
        AlgExpr::Rename { input, from, to } => AlgExpr::Rename {
            input: Box::new(fuse_reshapes(*input)),
            from,
            to,
        },
        AlgExpr::Product { left, right } => AlgExpr::Product {
            left: Box::new(fuse_reshapes(*left)),
            right: Box::new(fuse_reshapes(*right)),
        },
        AlgExpr::Join { left, right } => AlgExpr::Join {
            left: Box::new(fuse_reshapes(*left)),
            right: Box::new(fuse_reshapes(*right)),
        },
        AlgExpr::Union { left, right } => AlgExpr::Union {
            left: Box::new(fuse_reshapes(*left)),
            right: Box::new(fuse_reshapes(*right)),
        },
        AlgExpr::Diff { left, right } => AlgExpr::Diff {
            left: Box::new(fuse_reshapes(*left)),
            right: Box::new(fuse_reshapes(*right)),
        },
        AlgExpr::Intersect { left, right } => AlgExpr::Intersect {
            left: Box::new(fuse_reshapes(*left)),
            right: Box::new(fuse_reshapes(*right)),
        },
        AlgExpr::SemiJoin { left, right } => AlgExpr::SemiJoin {
            left: Box::new(fuse_reshapes(*left)),
            right: Box::new(fuse_reshapes(*right)),
        },
        AlgExpr::AntiJoin { left, right } => AlgExpr::AntiJoin {
            left: Box::new(fuse_reshapes(*left)),
            right: Box::new(fuse_reshapes(*right)),
        },
        AlgExpr::Extend { input, col, value } => AlgExpr::Extend {
            input: Box::new(fuse_reshapes(*input)),
            col,
            value,
        },
        AlgExpr::Emit { input, pred, cols } => AlgExpr::Emit {
            input: Box::new(fuse_reshapes(*input)),
            pred,
            cols,
        },
        AlgExpr::Nest { input, cols, into } => AlgExpr::Nest {
            input: Box::new(fuse_reshapes(*input)),
            cols,
            into,
        },
        AlgExpr::Unnest { input, col } => AlgExpr::Unnest {
            input: Box::new(fuse_reshapes(*input)),
            col,
        },
        AlgExpr::Aggregate {
            input,
            group,
            agg,
            on,
            into,
        } => AlgExpr::Aggregate {
            input: Box::new(fuse_reshapes(*input)),
            group,
            agg,
            on,
            into,
        },
    }
}

/// Replace references to column `col` with the scalar `with` — the
/// substitution that folds an `Extend` away.
fn replace_col_scalar(s: &Scalar, col: Sym, with: &Scalar) -> Scalar {
    match s {
        Scalar::Col(c) if *c == col => with.clone(),
        Scalar::Col(c) => Scalar::Col(*c),
        Scalar::Const(v) => Scalar::Const(v.clone()),
        Scalar::Add(a, b) => Scalar::Add(
            Box::new(replace_col_scalar(a, col, with)),
            Box::new(replace_col_scalar(b, col, with)),
        ),
        Scalar::Sub(a, b) => Scalar::Sub(
            Box::new(replace_col_scalar(a, col, with)),
            Box::new(replace_col_scalar(b, col, with)),
        ),
        Scalar::Mul(a, b) => Scalar::Mul(
            Box::new(replace_col_scalar(a, col, with)),
            Box::new(replace_col_scalar(b, col, with)),
        ),
        Scalar::Div(a, b) => Scalar::Div(
            Box::new(replace_col_scalar(a, col, with)),
            Box::new(replace_col_scalar(b, col, with)),
        ),
        Scalar::Tuple(fs) => Scalar::Tuple(
            fs.iter()
                .map(|(l, e)| (*l, replace_col_scalar(e, col, with)))
                .collect(),
        ),
        Scalar::Field(e, l) => Scalar::Field(Box::new(replace_col_scalar(e, col, with)), *l),
    }
}

/// Replace references to column `col` with the scalar `with` in a predicate.
fn replace_col_pred(p: &Pred, col: Sym, with: &Scalar) -> Pred {
    match p {
        Pred::True => Pred::True,
        Pred::Cmp(op, a, b) => Pred::Cmp(
            *op,
            replace_col_scalar(a, col, with),
            replace_col_scalar(b, col, with),
        ),
        Pred::In(a, b) => Pred::In(
            replace_col_scalar(a, col, with),
            replace_col_scalar(b, col, with),
        ),
        Pred::And(a, b) => Pred::And(
            Box::new(replace_col_pred(a, col, with)),
            Box::new(replace_col_pred(b, col, with)),
        ),
        Pred::Or(a, b) => Pred::Or(
            Box::new(replace_col_pred(a, col, with)),
            Box::new(replace_col_pred(b, col, with)),
        ),
        Pred::Not(i) => Pred::Not(Box::new(replace_col_pred(i, col, with))),
    }
}

/// Replace column references `old` with `new` in a scalar. Field labels of
/// nested values are untouched — only relation columns are renamed.
fn subst_scalar(s: &Scalar, old: Sym, new: Sym) -> Scalar {
    match s {
        Scalar::Col(c) => Scalar::Col(if *c == old { new } else { *c }),
        Scalar::Const(v) => Scalar::Const(v.clone()),
        Scalar::Add(a, b) => Scalar::Add(
            Box::new(subst_scalar(a, old, new)),
            Box::new(subst_scalar(b, old, new)),
        ),
        Scalar::Sub(a, b) => Scalar::Sub(
            Box::new(subst_scalar(a, old, new)),
            Box::new(subst_scalar(b, old, new)),
        ),
        Scalar::Mul(a, b) => Scalar::Mul(
            Box::new(subst_scalar(a, old, new)),
            Box::new(subst_scalar(b, old, new)),
        ),
        Scalar::Div(a, b) => Scalar::Div(
            Box::new(subst_scalar(a, old, new)),
            Box::new(subst_scalar(b, old, new)),
        ),
        Scalar::Tuple(fs) => Scalar::Tuple(
            fs.iter()
                .map(|(l, e)| (*l, subst_scalar(e, old, new)))
                .collect(),
        ),
        Scalar::Field(e, l) => Scalar::Field(Box::new(subst_scalar(e, old, new)), *l),
    }
}

/// Replace column references `old` with `new` in a predicate.
fn subst_pred(p: &Pred, old: Sym, new: Sym) -> Pred {
    match p {
        Pred::True => Pred::True,
        Pred::Cmp(op, a, b) => Pred::Cmp(*op, subst_scalar(a, old, new), subst_scalar(b, old, new)),
        Pred::In(a, b) => Pred::In(subst_scalar(a, old, new), subst_scalar(b, old, new)),
        Pred::And(a, b) => Pred::And(
            Box::new(subst_pred(a, old, new)),
            Box::new(subst_pred(b, old, new)),
        ),
        Pred::Or(a, b) => Pred::Or(
            Box::new(subst_pred(a, old, new)),
            Box::new(subst_pred(b, old, new)),
        ),
        Pred::Not(i) => Pred::Not(Box::new(subst_pred(i, old, new))),
    }
}

/// Try to sink one conjunct one level down; `Ok` means it was absorbed.
fn try_push(expr: AlgExpr, p: &Pred, catalog: Catalog<'_>) -> Result<AlgExpr, AlgExpr> {
    let needs = p.cols();
    let covered = |e: &AlgExpr| -> bool {
        out_cols(e, catalog).is_some_and(|cols| needs.iter().all(|c| cols.contains(c)))
    };
    match expr {
        AlgExpr::Join { left, right } => {
            if covered(&left) {
                Ok(AlgExpr::Join {
                    left: Box::new(push_conjuncts(*left, vec![p.clone()], catalog)),
                    right,
                })
            } else if covered(&right) {
                Ok(AlgExpr::Join {
                    left,
                    right: Box::new(push_conjuncts(*right, vec![p.clone()], catalog)),
                })
            } else {
                Err(AlgExpr::Join { left, right })
            }
        }
        AlgExpr::Product { left, right } => {
            if covered(&left) {
                Ok(AlgExpr::Product {
                    left: Box::new(push_conjuncts(*left, vec![p.clone()], catalog)),
                    right,
                })
            } else if covered(&right) {
                Ok(AlgExpr::Product {
                    left,
                    right: Box::new(push_conjuncts(*right, vec![p.clone()], catalog)),
                })
            } else {
                Err(AlgExpr::Product { left, right })
            }
        }
        // Selection distributes over union/intersect/difference (left side
        // for difference is enough for filtering; both sides stay correct
        // because σ(A − B) = σ(A) − B).
        AlgExpr::Union { left, right } => Ok(AlgExpr::Union {
            left: Box::new(push_conjuncts(*left, vec![p.clone()], catalog)),
            right: Box::new(push_conjuncts(*right, vec![p.clone()], catalog)),
        }),
        AlgExpr::Diff { left, right } => Ok(AlgExpr::Diff {
            left: Box::new(push_conjuncts(*left, vec![p.clone()], catalog)),
            right,
        }),
        AlgExpr::Intersect { left, right } => Ok(AlgExpr::Intersect {
            left: Box::new(push_conjuncts(*left, vec![p.clone()], catalog)),
            right,
        }),
        // Semi/anti-join output the left side unchanged, so a selection over
        // the result filters the left side directly.
        AlgExpr::SemiJoin { left, right } => Ok(AlgExpr::SemiJoin {
            left: Box::new(push_conjuncts(*left, vec![p.clone()], catalog)),
            right,
        }),
        AlgExpr::AntiJoin { left, right } => Ok(AlgExpr::AntiJoin {
            left: Box::new(push_conjuncts(*left, vec![p.clone()], catalog)),
            right,
        }),
        // σ_p(π_cols(E)) = π_cols(σ_p(E)) when p only uses kept columns.
        AlgExpr::Project { input, cols } => {
            if needs.iter().all(|c| cols.contains(c)) {
                Ok(AlgExpr::Project {
                    input: Box::new(push_conjuncts(*input, vec![p.clone()], catalog)),
                    cols,
                })
            } else {
                Err(AlgExpr::Project { input, cols })
            }
        }
        // σ_p(ρ_{from→to}(E)) = ρ_{from→to}(σ_{p[to↦from]}(E)), valid only
        // for a proper rename: the input must have `from` and must not
        // already have `to` (and p must not reference the renamed-away
        // column, which would be ill-formed anyway).
        AlgExpr::Rename { input, from, to } => {
            let proper = from == to
                || out_cols(&input, catalog)
                    .is_some_and(|cols| cols.contains(&from) && !cols.contains(&to));
            if proper && (from == to || !needs.contains(&from)) {
                let q = subst_pred(p, to, from);
                Ok(AlgExpr::Rename {
                    input: Box::new(push_conjuncts(*input, vec![q], catalog)),
                    from,
                    to,
                })
            } else {
                Err(AlgExpr::Rename { input, from, to })
            }
        }
        // A selection not touching the computed column commutes with extend.
        AlgExpr::Extend { input, col, value } => {
            if needs.contains(&col) {
                Err(AlgExpr::Extend { input, col, value })
            } else {
                Ok(AlgExpr::Extend {
                    input: Box::new(push_conjuncts(*input, vec![p.clone()], catalog)),
                    col,
                    value,
                })
            }
        }
        other => Err(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, Env};
    use crate::expr::{CmpOp, Scalar};
    use crate::relation::Relation;
    use logres_model::Value;

    fn edges(pairs: &[(i64, i64)]) -> Relation {
        Relation::from_rows(
            ["src", "dst"],
            pairs
                .iter()
                .map(|&(a, b)| Value::tuple([("src", Value::Int(a)), ("dst", Value::Int(b))])),
        )
    }

    fn sel(col: &str, v: i64) -> Pred {
        Pred::Cmp(CmpOp::Eq, Scalar::col(col), Scalar::Const(Value::Int(v)))
    }

    #[test]
    fn selection_sinks_into_join_side() {
        // σ_{src=1}(A(src,mid) ⋈ B(mid,dst)) → σ on A only.
        let a = AlgExpr::Const(edges(&[(1, 2), (5, 6)])).rename("dst", "mid");
        let b = AlgExpr::Const(edges(&[(2, 3), (6, 7)]))
            .rename("src", "mid")
            .rename("dst", "far");
        let joined = a.join(b).select(sel("src", 1));
        let optimized = push_selections(joined.clone());
        // The top-level node is now the join, not the select.
        assert!(matches!(optimized, AlgExpr::Join { .. }));
        // And the results agree.
        let env = Env::new();
        assert_eq!(
            eval(&joined, &env).unwrap(),
            eval(&optimized, &env).unwrap()
        );
    }

    #[test]
    fn selection_distributes_over_union() {
        let u = AlgExpr::Const(edges(&[(1, 2)]))
            .union(AlgExpr::Const(edges(&[(3, 4)])))
            .select(sel("src", 1));
        let optimized = push_selections(u.clone());
        assert!(matches!(optimized, AlgExpr::Union { .. }));
        let env = Env::new();
        assert_eq!(eval(&u, &env).unwrap(), eval(&optimized, &env).unwrap());
    }

    #[test]
    fn unpushable_selection_is_preserved() {
        // Predicate spanning both join sides cannot sink.
        let a = AlgExpr::Const(edges(&[(1, 2)])).rename("dst", "mid");
        let b = AlgExpr::Const(edges(&[(2, 3)]))
            .rename("src", "mid")
            .rename("dst", "far");
        let joined = a
            .join(b)
            .select(Pred::Cmp(CmpOp::Lt, Scalar::col("src"), Scalar::col("far")));
        let optimized = push_selections(joined.clone());
        assert!(matches!(optimized, AlgExpr::Select { .. }));
        let env = Env::new();
        assert_eq!(
            eval(&joined, &env).unwrap(),
            eval(&optimized, &env).unwrap()
        );
    }

    #[test]
    fn conjunctions_split_and_sink_separately() {
        let a = AlgExpr::Const(edges(&[(1, 2), (9, 2)])).rename("dst", "mid");
        let b = AlgExpr::Const(edges(&[(2, 3), (2, 9)]))
            .rename("src", "mid")
            .rename("dst", "far");
        let p = Pred::And(Box::new(sel("src", 1)), Box::new(sel("far", 3)));
        let joined = a.join(b).select(p);
        let optimized = push_selections(joined.clone());
        assert!(matches!(optimized, AlgExpr::Join { .. }));
        let env = Env::new();
        let r = eval(&optimized, &env).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(eval(&joined, &env).unwrap(), r);
    }

    #[test]
    fn selection_sinks_through_rename_with_substitution() {
        let e = AlgExpr::Const(edges(&[(1, 2), (3, 4)]))
            .rename("dst", "mid")
            .select(sel("mid", 2));
        let optimized = push_selections(e.clone());
        // The rename is now on top; the (substituted) select sank below it.
        assert!(matches!(optimized, AlgExpr::Rename { .. }));
        let env = Env::new();
        assert_eq!(eval(&e, &env).unwrap(), eval(&optimized, &env).unwrap());
    }

    #[test]
    fn selection_does_not_sink_through_rename_when_it_uses_the_old_name() {
        // `src` is renamed away; a predicate on `src` over the output is
        // ill-formed and must not be rewritten into something that evaluates.
        let e = AlgExpr::Const(edges(&[(1, 2)]))
            .rename("src", "origin")
            .select(sel("src", 1));
        let optimized = push_selections(e.clone());
        assert!(matches!(optimized, AlgExpr::Select { .. }));
        let env = Env::new();
        assert!(eval(&e, &env).is_err());
        assert!(eval(&optimized, &env).is_err());
    }

    #[test]
    fn selection_sinks_through_project() {
        let e = AlgExpr::Const(edges(&[(1, 2), (3, 4)]))
            .project(["src"])
            .select(sel("src", 1));
        let optimized = push_selections(e.clone());
        assert!(matches!(optimized, AlgExpr::Project { .. }));
        let env = Env::new();
        assert_eq!(eval(&e, &env).unwrap(), eval(&optimized, &env).unwrap());
    }

    #[test]
    fn selection_sinks_below_extend_and_semijoin() {
        let ext = AlgExpr::Extend {
            input: Box::new(AlgExpr::Const(edges(&[(1, 2), (3, 4)]))),
            col: Sym::new("sum"),
            value: Scalar::Add(Box::new(Scalar::col("src")), Box::new(Scalar::col("dst"))),
        }
        .select(sel("src", 1));
        let optimized = push_selections(ext.clone());
        assert!(matches!(optimized, AlgExpr::Extend { .. }));
        let env = Env::new();
        assert_eq!(eval(&ext, &env).unwrap(), eval(&optimized, &env).unwrap());

        let semi = AlgExpr::SemiJoin {
            left: Box::new(AlgExpr::Const(edges(&[(1, 2), (3, 4)]))),
            right: Box::new(AlgExpr::Const(edges(&[(1, 2)])).project(["src"])),
        }
        .select(sel("dst", 2));
        let optimized = push_selections(semi.clone());
        assert!(matches!(optimized, AlgExpr::SemiJoin { .. }));
        assert_eq!(eval(&semi, &env).unwrap(), eval(&optimized, &env).unwrap());
    }

    #[test]
    fn reshape_chain_fuses_to_a_single_emit() {
        // The per-literal shape the planner emits:
        // Rename(dst→?Y) ∘ Rename(src→?X) ∘ Project[src,dst] ∘ Select ∘ scan.
        let chain = AlgExpr::Const(edges(&[(1, 2), (3, 4)]))
            .select(sel("src", 1))
            .project(["src", "dst"])
            .rename("src", "?X")
            .rename("dst", "?Y");
        let fused = fuse_reshapes(chain.clone());
        let AlgExpr::Emit { input, pred, cols } = &fused else {
            panic!("expected Emit, got {fused:?}");
        };
        assert!(matches!(input.as_ref(), AlgExpr::Const(_)));
        assert!(!matches!(pred, Pred::True));
        assert_eq!(
            cols,
            &vec![
                (Sym::new("?X"), Scalar::col("src")),
                (Sym::new("?Y"), Scalar::col("dst")),
            ]
        );
        let env = Env::new();
        assert_eq!(eval(&chain, &env).unwrap(), eval(&fused, &env).unwrap());
    }

    #[test]
    fn bare_projects_are_left_unfused() {
        // A lone projection absorbs nothing; fusing it would only add an
        // operator, so it stays a Project.
        let p = AlgExpr::Const(edges(&[(1, 2)])).project(["src"]);
        assert!(matches!(fuse_reshapes(p), AlgExpr::Project { .. }));
    }

    #[test]
    fn extend_folds_into_the_emit_mapping() {
        // Project[src, x] ∘ Extend(x := src + 1) ∘ scan: the computed column
        // substitutes into the mapping, so the Extend disappears.
        let ext = AlgExpr::Extend {
            input: Box::new(AlgExpr::Const(edges(&[(1, 2), (5, 6)]))),
            col: Sym::new("x"),
            value: Scalar::Add(
                Box::new(Scalar::col("src")),
                Box::new(Scalar::Const(Value::Int(1))),
            ),
        };
        let chain = ext.project(["src", "x"]).rename("x", "bump");
        let fused = fuse_reshapes(chain.clone());
        let AlgExpr::Emit { input, cols, .. } = &fused else {
            panic!("expected Emit, got {fused:?}");
        };
        assert!(matches!(input.as_ref(), AlgExpr::Const(_)));
        assert_eq!(cols[0], (Sym::new("src"), Scalar::col("src")));
        assert!(matches!(cols[1].1, Scalar::Add(..)));
        let env = Env::new();
        assert_eq!(eval(&chain, &env).unwrap(), eval(&fused, &env).unwrap());
    }

    #[test]
    fn extend_below_an_absorbed_select_is_not_folded() {
        // Project ∘ Select ∘ Extend: folding the Extend would move its
        // evaluation across the filter that originally ran after it, so the
        // walk stops at the Extend and it stays the emit input.
        let ext = AlgExpr::Extend {
            input: Box::new(AlgExpr::Const(edges(&[(1, 2), (3, 4)]))),
            col: Sym::new("x"),
            value: Scalar::Add(
                Box::new(Scalar::col("src")),
                Box::new(Scalar::Const(Value::Int(1))),
            ),
        };
        let chain = ext
            .select(sel("x", 2))
            .project(["src", "dst"])
            .rename("src", "?X");
        let fused = fuse_reshapes(chain.clone());
        let AlgExpr::Emit { input, .. } = &fused else {
            panic!("expected Emit, got {fused:?}");
        };
        assert!(
            matches!(input.as_ref(), AlgExpr::Extend { .. }),
            "Extend below a Select must stay materialized, got {input:?}"
        );
        let env = Env::new();
        assert_eq!(eval(&chain, &env).unwrap(), eval(&fused, &env).unwrap());
    }

    #[test]
    fn rename_below_the_project_stops_the_chain() {
        // The inner Rename's propriety cannot be checked without the scan
        // schema, so the chain absorbs down to it and no further.
        let chain = AlgExpr::Const(edges(&[(1, 2)]))
            .rename("dst", "mid")
            .select(sel("src", 1))
            .project(["src", "mid"]);
        let fused = fuse_reshapes(chain.clone());
        let AlgExpr::Emit { input, .. } = &fused else {
            panic!("expected Emit, got {fused:?}");
        };
        assert!(matches!(input.as_ref(), AlgExpr::Rename { .. }));
        let env = Env::new();
        assert_eq!(eval(&chain, &env).unwrap(), eval(&fused, &env).unwrap());
    }

    #[test]
    fn improper_rename_leaves_the_chain_alone() {
        // Renaming onto a column that still exists is not injective; the
        // chain is left untouched rather than fused unsoundly.
        let chain = AlgExpr::Const(edges(&[(1, 2)]))
            .select(sel("src", 1))
            .project(["src", "dst"])
            .rename("src", "dst");
        assert!(matches!(fuse_reshapes(chain), AlgExpr::Rename { .. }));
    }

    #[test]
    fn fusion_recurses_through_join_operands() {
        // Chains on both join sides fuse even though the join itself is not
        // part of any chain.
        let side = |lo: i64| {
            AlgExpr::Const(edges(&[(lo, lo + 1)]))
                .select(sel("src", lo))
                .project(["src", "dst"])
                .rename("dst", "mid")
        };
        let joined = side(1).join(side(2).rename("src", "far"));
        let fused = fuse_reshapes(joined.clone());
        let dbg = format!("{fused:?}");
        assert!(dbg.contains("Emit"), "no Emit in {dbg}");
        let env = Env::new();
        assert_eq!(eval(&joined, &env).unwrap(), eval(&fused, &env).unwrap());
    }

    /// Differential proptest: pushdown never changes the result of a
    /// well-formed plan, across random expressions covering joins, unions,
    /// differences, renames, projections, extends and semi-/antijoins.
    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        /// Deterministic byte-stream cursor: the proptest shrinker operates
        /// on the raw bytes, which keeps the generator simple.
        struct Cursor<'a> {
            bytes: &'a [u8],
            pos: usize,
        }

        impl<'a> Cursor<'a> {
            fn next(&mut self) -> u8 {
                let b = self.bytes.get(self.pos).copied().unwrap_or(0);
                self.pos += 1;
                b
            }
        }

        fn const_rel(cur: &mut Cursor<'_>, cols: &[Sym]) -> Relation {
            let n = (cur.next() % 5) as usize;
            let rows = (0..n).map(|_| {
                Value::tuple(
                    cols.iter()
                        .map(|c| (*c, Value::Int((cur.next() % 4) as i64)))
                        .collect::<Vec<_>>(),
                )
            });
            Relation::from_rows(cols.to_vec(), rows)
        }

        fn rand_pred(cur: &mut Cursor<'_>, cols: &[Sym]) -> Pred {
            let c = cols[(cur.next() as usize) % cols.len()];
            let op = match cur.next() % 4 {
                0 => CmpOp::Eq,
                1 => CmpOp::Ne,
                2 => CmpOp::Lt,
                _ => CmpOp::Ge,
            };
            let rhs = if cur.next().is_multiple_of(3) && cols.len() > 1 {
                Scalar::Col(cols[(cur.next() as usize) % cols.len()])
            } else {
                Scalar::Const(Value::Int((cur.next() % 4) as i64))
            };
            Pred::Cmp(op, Scalar::Col(c), rhs)
        }

        /// Build a random well-formed expression and report its columns.
        fn build(cur: &mut Cursor<'_>, depth: usize) -> (AlgExpr, Vec<Sym>) {
            let col = |s: &str| Sym::new(s);
            if depth == 0 {
                return match cur.next() % 4 {
                    0 => (AlgExpr::Rel(col("r1")), vec![col("a"), col("b")]),
                    1 => (AlgExpr::Rel(col("r2")), vec![col("b"), col("c")]),
                    2 => {
                        let cols = vec![col("a"), col("c")];
                        (AlgExpr::Const(const_rel(cur, &cols)), cols)
                    }
                    _ => {
                        let cols = vec![col("a"), col("b"), col("c")];
                        (AlgExpr::Const(const_rel(cur, &cols)), cols)
                    }
                };
            }
            match cur.next() % 8 {
                0 => {
                    // Select.
                    let (e, cols) = build(cur, depth - 1);
                    let p = rand_pred(cur, &cols);
                    (e.select(p), cols)
                }
                1 => {
                    // Project to a nonempty subset.
                    let (e, cols) = build(cur, depth - 1);
                    let keep: Vec<Sym> = cols
                        .iter()
                        .filter(|_| cur.next().is_multiple_of(2))
                        .copied()
                        .collect();
                    let keep = if keep.is_empty() { vec![cols[0]] } else { keep };
                    (e.project_syms(&keep), keep)
                }
                2 => {
                    // Rename a column to a fresh name.
                    let (e, mut cols) = build(cur, depth - 1);
                    let fresh: Vec<Sym> = ["x", "y", "z", "w"]
                        .iter()
                        .map(|s| col(s))
                        .filter(|s| !cols.contains(s))
                        .collect();
                    let from = cols[(cur.next() as usize) % cols.len()];
                    let to = fresh[(cur.next() as usize) % fresh.len()];
                    for c in &mut cols {
                        if *c == from {
                            *c = to;
                        }
                    }
                    (
                        AlgExpr::Rename {
                            input: Box::new(e),
                            from,
                            to,
                        },
                        cols,
                    )
                }
                3 => {
                    // Natural join.
                    let (l, lcols) = build(cur, depth - 1);
                    let (r, rcols) = build(cur, depth - 1);
                    let mut cols = lcols;
                    for c in rcols {
                        if !cols.contains(&c) {
                            cols.push(c);
                        }
                    }
                    (l.join(r), cols)
                }
                4 | 5 => {
                    // Union / Diff / Intersect against a same-schema const.
                    let (l, cols) = build(cur, depth - 1);
                    let r = AlgExpr::Const(const_rel(cur, &cols));
                    let e = match cur.next() % 3 {
                        0 => l.union(r),
                        1 => AlgExpr::Diff {
                            left: Box::new(l),
                            right: Box::new(r),
                        },
                        _ => AlgExpr::Intersect {
                            left: Box::new(l),
                            right: Box::new(r),
                        },
                    };
                    (e, cols)
                }
                6 => {
                    // Extend with a fresh computed column.
                    let (e, mut cols) = build(cur, depth - 1);
                    let fresh: Vec<Sym> = ["x", "y", "z", "w"]
                        .iter()
                        .map(|s| col(s))
                        .filter(|s| !cols.contains(s))
                        .collect();
                    let new = fresh[(cur.next() as usize) % fresh.len()];
                    let src = cols[(cur.next() as usize) % cols.len()];
                    let e = AlgExpr::Extend {
                        input: Box::new(e),
                        col: new,
                        value: Scalar::Add(
                            Box::new(Scalar::Col(src)),
                            Box::new(Scalar::Const(Value::Int((cur.next() % 3) as i64))),
                        ),
                    };
                    cols.push(new);
                    (e, cols)
                }
                _ => {
                    // Semi- or anti-join.
                    let (l, cols) = build(cur, depth - 1);
                    let (r, _) = build(cur, depth - 1);
                    let e = if cur.next().is_multiple_of(2) {
                        AlgExpr::SemiJoin {
                            left: Box::new(l),
                            right: Box::new(r),
                        }
                    } else {
                        AlgExpr::AntiJoin {
                            left: Box::new(l),
                            right: Box::new(r),
                        }
                    };
                    (e, cols)
                }
            }
        }

        trait ProjectSyms {
            fn project_syms(self, cols: &[Sym]) -> AlgExpr;
        }

        impl ProjectSyms for AlgExpr {
            fn project_syms(self, cols: &[Sym]) -> AlgExpr {
                AlgExpr::Project {
                    input: Box::new(self),
                    cols: cols.to_vec(),
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            #[test]
            fn optimized_plans_agree_with_unoptimized(
                bytes in proptest::collection::vec(any::<u8>(), 16..96),
                depth in 1usize..4,
            ) {
                let mut cur = Cursor { bytes: &bytes, pos: 0 };
                let (expr, top_cols) = build(&mut cur, depth);
                // Wrap in one more selection so there is always something to
                // push from the very top.
                let mut cur2 = Cursor { bytes: &bytes, pos: bytes.len() / 2 };
                let expr = expr.select(rand_pred(&mut cur2, &top_cols));

                let mut env = Env::new();
                let mut cur3 = Cursor { bytes: &bytes, pos: bytes.len() / 3 };
                env.bind("r1", const_rel(&mut cur3, &[Sym::new("a"), Sym::new("b")]));
                env.bind("r2", const_rel(&mut cur3, &[Sym::new("b"), Sym::new("c")]));
                let catalog = |name: Sym| {
                    if name == Sym::new("r1") {
                        Some(vec![Sym::new("a"), Sym::new("b")])
                    } else if name == Sym::new("r2") {
                        Some(vec![Sym::new("b"), Sym::new("c")])
                    } else {
                        None
                    }
                };

                let optimized = push_selections_with(expr.clone(), &catalog);
                let orig = eval(&expr, &env);
                let opt = eval(&optimized, &env);
                if let Ok(orig_rel) = orig {
                    let opt_rel = opt.expect("optimized plan must evaluate when the original does");
                    prop_assert_eq!(orig_rel, opt_rel);
                }
            }

            /// Fusion differential: collapsing reshape chains into emit nodes
            /// never changes the result of a plan the original evaluates —
            /// the fused plan may only error *less* (it skips intermediate
            /// materializations that could, e.g., trip a type error on rows
            /// the final predicate would drop), never differently.
            #[test]
            fn fused_plans_agree_with_unfused(
                bytes in proptest::collection::vec(any::<u8>(), 16..96),
                depth in 1usize..4,
            ) {
                let mut cur = Cursor { bytes: &bytes, pos: 0 };
                let (expr, top_cols) = build(&mut cur, depth);
                // Cap with a projection so the outermost shape is the
                // Project-over-chain pattern fusion targets.
                let keep: Vec<Sym> = top_cols
                    .iter()
                    .filter(|_| cur.next().is_multiple_of(2))
                    .copied()
                    .collect();
                let keep = if keep.is_empty() { vec![top_cols[0]] } else { keep };
                let expr = expr.project_syms(&keep);

                let mut env = Env::new();
                let mut cur3 = Cursor { bytes: &bytes, pos: bytes.len() / 3 };
                env.bind("r1", const_rel(&mut cur3, &[Sym::new("a"), Sym::new("b")]));
                env.bind("r2", const_rel(&mut cur3, &[Sym::new("b"), Sym::new("c")]));

                let fused = fuse_reshapes(expr.clone());
                if let Ok(orig_rel) = eval(&expr, &env) {
                    let fused_rel =
                        eval(&fused, &env).expect("fused plan must evaluate when the original does");
                    prop_assert_eq!(orig_rel, fused_rel);
                }
            }

            /// Composition differential: the production pipeline runs
            /// pushdown *then* fusion; the composed plan agrees too.
            #[test]
            fn pushed_then_fused_plans_agree_with_unoptimized(
                bytes in proptest::collection::vec(any::<u8>(), 16..96),
                depth in 1usize..4,
            ) {
                let mut cur = Cursor { bytes: &bytes, pos: 0 };
                let (expr, top_cols) = build(&mut cur, depth);
                let mut cur2 = Cursor { bytes: &bytes, pos: bytes.len() / 2 };
                let expr = expr.select(rand_pred(&mut cur2, &top_cols)).project_syms(&top_cols);

                let mut env = Env::new();
                let mut cur3 = Cursor { bytes: &bytes, pos: bytes.len() / 3 };
                env.bind("r1", const_rel(&mut cur3, &[Sym::new("a"), Sym::new("b")]));
                env.bind("r2", const_rel(&mut cur3, &[Sym::new("b"), Sym::new("c")]));
                let catalog = |name: Sym| {
                    if name == Sym::new("r1") {
                        Some(vec![Sym::new("a"), Sym::new("b")])
                    } else if name == Sym::new("r2") {
                        Some(vec![Sym::new("b"), Sym::new("c")])
                    } else {
                        None
                    }
                };

                let optimized = fuse_reshapes(push_selections_with(expr.clone(), &catalog));
                if let Ok(orig_rel) = eval(&expr, &env) {
                    let opt_rel = eval(&optimized, &env)
                        .expect("optimized plan must evaluate when the original does");
                    prop_assert_eq!(orig_rel, opt_rel);
                }
            }
        }
    }
}
