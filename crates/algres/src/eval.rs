//! Evaluator for the extended relational algebra.
//!
//! Evaluation runs through an [`Evaluator`] session over a fixed base
//! environment. A caller implements a closure as an explicit loop over the
//! session: it [`Evaluator::bind`]s the round's delta relation, evaluates
//! the step plans, and folds the new tuples into the accumulated relation
//! with [`Evaluator::extend_binding`]. Names bound this way are *volatile*.
//! The session caches, across rounds and repeated calls, the results of
//! sub-expressions that reach no volatile name, along with the hash tables
//! built for `Join`/`SemiJoin`/`AntiJoin` right sides. The one-shot
//! [`eval`] wrapper evaluates a single expression in a fresh session.

use std::sync::Arc;
use std::time::Instant;

use rustc_hash::{FxHashMap, FxHashSet};

use logres_model::{Sym, Value};

use crate::error::AlgError;
use crate::expr::{AggFun, AlgExpr, CmpOp, Pred, Scalar};
use crate::relation::Relation;

/// Named relations visible to an expression.
#[derive(Debug, Clone, Default)]
pub struct Env {
    rels: FxHashMap<Sym, Relation>,
}

impl Env {
    /// Empty environment.
    pub fn new() -> Env {
        Env::default()
    }

    /// Bind (or rebind) a relation.
    pub fn bind(&mut self, name: impl Into<Sym>, rel: Relation) {
        self.rels.insert(name.into(), rel);
    }

    /// Look up a relation.
    pub fn get(&self, name: Sym) -> Option<&Relation> {
        self.rels.get(&name)
    }
}

/// Work counters exposed by an [`Evaluator`] session. The engine surfaces
/// these through the metrics registry so tests can pin that join tables
/// over stable relations are built once per session rather than once per
/// round.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EvalStats {
    /// Hash tables built for `Join`/`SemiJoin`/`AntiJoin` right sides.
    pub hash_builds: u64,
    /// Probes against those tables (one per left tuple).
    pub probes: u64,
    /// Sub-expression evaluations answered from the memo.
    pub memo_hits: u64,
}

/// Per-operator-node runtime counters, collected only when profiling is
/// switched on via [`Evaluator::enable_profiling`]. Counters are keyed by
/// node identity (the expression must outlive the session, as for the memo),
/// so repeated evaluations of the same node — one per semi-naive round —
/// accumulate. `nanos` is *inclusive* wall time (the node plus the
/// children it actually evaluated); every other field is a deterministic
/// count, bit-identical across runs and thread counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpStats {
    /// Times this node was evaluated (memo hits included).
    pub evals: u64,
    /// Total rows returned by the node's direct children across all evals.
    pub rows_in: u64,
    /// Total rows this node returned across all evals.
    pub rows_out: u64,
    /// Hash tables built for this node's right side (joins only).
    pub hash_builds: u64,
    /// Probes against this node's hash table (joins only).
    pub probes: u64,
    /// Evaluations of this node answered from the memo.
    pub memo_hits: u64,
    /// Inclusive wall-clock nanoseconds spent evaluating this node.
    pub nanos: u64,
}

/// A materialized hash table for a `Join` right side.
struct JoinTable {
    left_cols: Vec<Sym>,
    shared: Vec<Sym>,
    right_only: Vec<Sym>,
    rows: FxHashMap<Vec<Value>, Vec<Arc<Value>>>,
}

/// A materialized key set for a `SemiJoin`/`AntiJoin` right side.
struct KeyTable {
    left_cols: Vec<Sym>,
    shared: Vec<Sym>,
    keys: FxHashSet<Vec<Value>>,
    right_empty: bool,
}

/// A caching evaluation session over a fixed base environment.
///
/// Relations named in `base` are treated as immutable for the session;
/// sub-expressions that reach only those (and constants) are memoized by node
/// identity. Names bound through [`Evaluator::bind`] or
/// [`Evaluator::extend_binding`] are *volatile*: results depending on them
/// are recomputed, but the hash tables and memo entries for their stable
/// siblings persist across rounds, which is where the semi-naive win comes
/// from.
pub struct Evaluator<'a> {
    base: &'a Env,
    /// Volatile bindings, looked up before `base`. A name bound once stays
    /// here, and so stays volatile, for the rest of the session.
    overlay: FxHashMap<Sym, Relation>,
    /// Stable node ids: address → id, assigned by [`Evaluator::register_plan`]
    /// (or lazily on first visit). Every cache below is keyed by these ids,
    /// never by raw addresses, so re-registering a rebuilt plan that happens
    /// to reuse a freed allocation cannot alias a stale entry — fresh ids
    /// simply orphan the old ones.
    ids: FxHashMap<usize, u64>,
    next_id: u64,
    /// Node-id memo for volatile-free sub-expressions.
    memo: FxHashMap<u64, Relation>,
    join_tables: FxHashMap<u64, JoinTable>,
    key_tables: FxHashMap<u64, KeyTable>,
    stats: EvalStats,
    /// When on, per-node [`OpStats`] are accumulated in `op_stats`; the off
    /// path pays exactly one branch per node evaluation.
    profiling: bool,
    op_stats: FxHashMap<u64, OpStats>,
    /// One frame per in-flight profiled evaluation: the rows returned by the
    /// node's direct children so far (becomes the node's `rows_in`).
    frames: Vec<u64>,
}

impl<'a> Evaluator<'a> {
    /// New session over `base`; all of `base`'s bindings are stable.
    pub fn new(base: &'a Env) -> Evaluator<'a> {
        Evaluator {
            base,
            overlay: FxHashMap::default(),
            ids: FxHashMap::default(),
            next_id: 0,
            memo: FxHashMap::default(),
            join_tables: FxHashMap::default(),
            key_tables: FxHashMap::default(),
            stats: EvalStats::default(),
            profiling: false,
            op_stats: FxHashMap::default(),
            frames: Vec::new(),
        }
    }

    /// Turn on per-node operator profiling for the rest of the session.
    pub fn enable_profiling(&mut self) {
        self.profiling = true;
    }

    /// The accumulated [`OpStats`] for a node (zero when the node was never
    /// evaluated or profiling was off).
    pub fn op_stats_for(&self, expr: &AlgExpr) -> OpStats {
        self.node_id_of(expr)
            .and_then(|id| self.op_stats.get(&id).copied())
            .unwrap_or_default()
    }

    /// Assign fresh stable ids to every node of `plan`. Caches (memo, join
    /// tables, op stats) are keyed by these ids; registering a plan again —
    /// e.g. after a recompile that reuses freed allocations — hands out new
    /// ids, so entries belonging to a dropped plan can never be resurrected
    /// through an aliased address.
    pub fn register_plan(&mut self, plan: &AlgExpr) {
        let mut stack = vec![plan];
        while let Some(e) = stack.pop() {
            self.next_id += 1;
            self.ids.insert(e as *const AlgExpr as usize, self.next_id);
            stack.extend(e.children());
        }
    }

    /// The stable id of a registered node, or `None` when the node was never
    /// registered nor evaluated in this session.
    pub fn node_id_of(&self, expr: &AlgExpr) -> Option<u64> {
        self.ids.get(&(expr as *const AlgExpr as usize)).copied()
    }

    /// The stable id of a node, assigning one on first sight (one-shot
    /// evaluations don't pre-register their plan).
    fn node_id(&mut self, expr: &AlgExpr) -> u64 {
        let ptr = expr as *const AlgExpr as usize;
        if let Some(id) = self.ids.get(&ptr) {
            return *id;
        }
        self.next_id += 1;
        self.ids.insert(ptr, self.next_id);
        self.next_id
    }

    /// Bind (or rebind) a volatile relation. The name is marked volatile for
    /// the rest of the session, so no cached result can go stale through it.
    pub fn bind(&mut self, name: impl Into<Sym>, rel: Relation) {
        self.overlay.insert(name.into(), rel);
    }

    /// Extend an existing volatile binding in place with the rows of `more`,
    /// returning how many were new. Cheaper than [`Evaluator::bind`] with a
    /// grown clone when a relation accretes across semi-naive rounds; safe
    /// because volatile names never participate in any cache.
    pub fn extend_binding(&mut self, name: impl Into<Sym>, more: &Relation) -> usize {
        let name = name.into();
        match self.overlay.get_mut(&name) {
            Some(rel) => rel.extend_from(more),
            None => {
                let mut rel = self
                    .base
                    .get(name)
                    .cloned()
                    .unwrap_or_else(|| Relation::new(more.cols().to_vec()));
                let added = rel.extend_from(more);
                self.overlay.insert(name, rel);
                added
            }
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    fn note_hash_build(&mut self, key: u64) {
        self.stats.hash_builds += 1;
        if self.profiling {
            self.op_stats.entry(key).or_default().hash_builds += 1;
        }
    }

    fn note_probes(&mut self, key: u64, probes: u64) {
        self.stats.probes += probes;
        if self.profiling {
            self.op_stats.entry(key).or_default().probes += probes;
        }
    }

    /// Evaluate an expression. The expression must outlive the session —
    /// cached results are keyed by node identity.
    pub fn eval(&mut self, expr: &'a AlgExpr) -> Result<Relation, AlgError> {
        self.eval_dep(expr).map(|(rel, _)| rel)
    }

    /// Evaluate, also reporting whether the result depends on any volatile
    /// name (in which case it was not memoized). When profiling, wrap the
    /// evaluation in an [`OpStats`] frame: inclusive wall time, the rows the
    /// direct children produced (`rows_in`), and the rows returned
    /// (`rows_out`, also credited to the parent frame's `rows_in`).
    fn eval_dep(&mut self, expr: &'a AlgExpr) -> Result<(Relation, bool), AlgError> {
        if !self.profiling {
            return self.eval_dep_inner(expr);
        }
        let start = Instant::now();
        self.frames.push(0);
        let result = self.eval_dep_inner(expr);
        let child_rows = self.frames.pop().expect("frame pushed above");
        if let Ok((rel, _)) = &result {
            let rows_out = rel.len() as u64;
            let key = self.node_id(expr);
            let s = self.op_stats.entry(key).or_default();
            s.evals += 1;
            s.rows_in += child_rows;
            s.rows_out += rows_out;
            s.nanos += start.elapsed().as_nanos() as u64;
            if let Some(parent) = self.frames.last_mut() {
                *parent += rows_out;
            }
        }
        result
    }

    fn eval_dep_inner(&mut self, expr: &'a AlgExpr) -> Result<(Relation, bool), AlgError> {
        match expr {
            AlgExpr::Rel(name) => {
                if let Some(rel) = self.overlay.get(name) {
                    return Ok((rel.clone(), true));
                }
                let rel = self.base.get(*name).cloned();
                return Ok((rel.ok_or(AlgError::UnknownRelation(*name))?, false));
            }
            AlgExpr::Const(rel) => return Ok((rel.clone(), false)),
            _ => {}
        }
        let key = self.node_id(expr);
        if let Some(rel) = self.memo.get(&key) {
            self.stats.memo_hits += 1;
            let rel = rel.clone();
            if self.profiling {
                self.op_stats.entry(key).or_default().memo_hits += 1;
            }
            return Ok((rel, false));
        }
        let (rel, dep) = self.eval_node(expr)?;
        if !dep {
            self.memo.insert(key, rel.clone());
        }
        Ok((rel, dep))
    }

    fn eval_node(&mut self, expr: &'a AlgExpr) -> Result<(Relation, bool), AlgError> {
        match expr {
            AlgExpr::Rel(_) | AlgExpr::Const(_) => unreachable!("handled in eval_dep_inner"),
            AlgExpr::Select { input, pred } => {
                let (rel, dep) = self.eval_dep(input)?;
                let mut out = Relation::new(rel.cols().to_vec());
                for t in rel.iter_shared() {
                    if eval_pred(pred, t)? {
                        out.insert_shared(Arc::clone(t));
                    }
                }
                Ok((out, dep))
            }
            AlgExpr::Project { input, cols } => {
                let (rel, dep) = self.eval_dep(input)?;
                for c in cols {
                    if !rel.has_col(*c) {
                        return Err(AlgError::UnknownColumn {
                            rel: format!("{:?}", rel.cols()),
                            col: *c,
                        });
                    }
                }
                let mut out = Relation::new(cols.clone());
                for t in rel.iter() {
                    let fields: Vec<(Sym, Value)> = cols
                        .iter()
                        .map(|c| (*c, t.field(*c).expect("checked column").clone()))
                        .collect();
                    out.insert(Value::tuple(fields));
                }
                Ok((out, dep))
            }
            AlgExpr::Rename { input, from, to } => {
                let (rel, dep) = self.eval_dep(input)?;
                if !rel.has_col(*from) {
                    return Err(AlgError::UnknownColumn {
                        rel: format!("{:?}", rel.cols()),
                        col: *from,
                    });
                }
                let cols: Vec<Sym> = rel
                    .cols()
                    .iter()
                    .map(|c| if c == from { *to } else { *c })
                    .collect();
                let mut out = Relation::new(cols);
                for t in rel.iter() {
                    let fields: Vec<(Sym, Value)> = t
                        .as_tuple()
                        .expect("relation rows are tuples")
                        .iter()
                        .map(|(l, v)| (if l == from { *to } else { *l }, v.clone()))
                        .collect();
                    out.insert(Value::tuple(fields));
                }
                Ok((out, dep))
            }
            AlgExpr::Product { left, right } => {
                let (l, ldep) = self.eval_dep(left)?;
                let (r, rdep) = self.eval_dep(right)?;
                let overlap: Vec<Sym> = l
                    .cols()
                    .iter()
                    .filter(|c| r.has_col(**c))
                    .copied()
                    .collect();
                if !overlap.is_empty() {
                    return Err(AlgError::OverlappingColumns(overlap));
                }
                let mut cols = l.cols().to_vec();
                cols.extend_from_slice(r.cols());
                let mut out = Relation::new(cols);
                for lt in l.iter() {
                    for rt in r.iter() {
                        let mut fields = lt.as_tuple().expect("tuple").to_vec();
                        fields.extend(rt.as_tuple().expect("tuple").iter().cloned());
                        out.insert(Value::tuple(fields));
                    }
                }
                Ok((out, ldep || rdep))
            }
            AlgExpr::Join { left, right } => {
                let (l, ldep) = self.eval_dep(left)?;
                let key = self.node_id(expr);
                let cached = self
                    .join_tables
                    .get(&key)
                    .is_some_and(|t| t.left_cols == l.cols());
                if !cached {
                    let (r, rdep) = self.eval_dep(right)?;
                    let table = build_join_table(&l, &r);
                    self.note_hash_build(key);
                    if rdep {
                        // Right side is volatile: probe once, do not cache.
                        let (out, probes) = probe_join_table(&table, &l);
                        self.note_probes(key, probes);
                        return Ok((out, true));
                    }
                    self.join_tables.insert(key, table);
                }
                let table = self.join_tables.get(&key).expect("cached join table");
                let (out, probes) = probe_join_table(table, &l);
                self.note_probes(key, probes);
                Ok((out, ldep))
            }
            AlgExpr::Union { left, right } => {
                let (l, ldep) = self.eval_dep(left)?;
                let (r, rdep) = self.eval_dep(right)?;
                check_same_cols(&l, &r)?;
                let mut out = l;
                out.extend_from(&r);
                Ok((out, ldep || rdep))
            }
            AlgExpr::Diff { left, right } => {
                let (l, ldep) = self.eval_dep(left)?;
                let (r, rdep) = self.eval_dep(right)?;
                check_same_cols(&l, &r)?;
                let mut out = Relation::new(l.cols().to_vec());
                for t in l.iter_shared() {
                    if !r.contains(t) {
                        out.insert_shared(Arc::clone(t));
                    }
                }
                Ok((out, ldep || rdep))
            }
            AlgExpr::Intersect { left, right } => {
                let (l, ldep) = self.eval_dep(left)?;
                let (r, rdep) = self.eval_dep(right)?;
                check_same_cols(&l, &r)?;
                let mut out = Relation::new(l.cols().to_vec());
                for t in l.iter_shared() {
                    if r.contains(t) {
                        out.insert_shared(Arc::clone(t));
                    }
                }
                Ok((out, ldep || rdep))
            }
            AlgExpr::SemiJoin { left, right } | AlgExpr::AntiJoin { left, right } => {
                let keep_matches = matches!(expr, AlgExpr::SemiJoin { .. });
                let (l, ldep) = self.eval_dep(left)?;
                let key = self.node_id(expr);
                let cached = self
                    .key_tables
                    .get(&key)
                    .is_some_and(|t| t.left_cols == l.cols());
                if !cached {
                    let (r, rdep) = self.eval_dep(right)?;
                    let table = build_key_table(&l, &r);
                    self.note_hash_build(key);
                    if rdep {
                        let (out, probes) = probe_key_table(&table, &l, keep_matches);
                        self.note_probes(key, probes);
                        return Ok((out, true));
                    }
                    self.key_tables.insert(key, table);
                }
                let table = self.key_tables.get(&key).expect("cached key table");
                let (out, probes) = probe_key_table(table, &l, keep_matches);
                self.note_probes(key, probes);
                Ok((out, ldep))
            }
            AlgExpr::Extend { input, col, value } => {
                let (rel, dep) = self.eval_dep(input)?;
                let mut cols = rel.cols().to_vec();
                cols.push(*col);
                let mut out = Relation::new(cols);
                for t in rel.iter() {
                    let v = eval_scalar(value, t)?;
                    let mut fields = t.as_tuple().expect("tuple").to_vec();
                    fields.push((*col, v));
                    out.insert(Value::tuple(fields));
                }
                Ok((out, dep))
            }
            AlgExpr::Emit { input, pred, cols } => {
                if let AlgExpr::Join { left, right } = input.as_ref() {
                    return self.eval_emit_join(input, left, right, pred, cols);
                }
                let (rel, dep) = self.eval_dep(input)?;
                let mut out = Relation::new(emit_out_cols(cols));
                // Pure column remap with no residual predicate: resolve every
                // source to its fixed field index once and copy fields by
                // position, skipping the per-tuple lookups and label sort.
                if matches!(pred, Pred::True) {
                    if let Some(tpl) = pure_emit_template(cols, rel.cols()) {
                        for t in rel.iter() {
                            let fs = t.as_tuple().expect("relation rows are tuples");
                            out.insert(Value::Tuple(
                                tpl.iter().map(|&(c, i)| (c, fs[i].1.clone())).collect(),
                            ));
                        }
                        return Ok((out, dep));
                    }
                }
                for t in rel.iter() {
                    if eval_pred(pred, t)? {
                        out.insert(emit_tuple(cols, t)?);
                    }
                }
                Ok((out, dep))
            }
            AlgExpr::Nest { input, cols, into } => {
                let (rel, dep) = self.eval_dep(input)?;
                let group_cols: Vec<Sym> = rel
                    .cols()
                    .iter()
                    .filter(|c| !cols.contains(c))
                    .copied()
                    .collect();
                let mut groups: FxHashMap<Vec<Value>, Vec<Value>> = FxHashMap::default();
                let mut order: Vec<Vec<Value>> = Vec::new();
                for t in rel.iter() {
                    let key: Vec<Value> = group_cols
                        .iter()
                        .map(|c| {
                            t.field(*c).cloned().ok_or(AlgError::UnknownColumn {
                                rel: format!("{:?}", rel.cols()),
                                col: *c,
                            })
                        })
                        .collect::<Result<_, _>>()?;
                    let elem = if cols.len() == 1 {
                        t.field(cols[0]).cloned().ok_or(AlgError::UnknownColumn {
                            rel: format!("{:?}", rel.cols()),
                            col: cols[0],
                        })?
                    } else {
                        Value::tuple(
                            cols.iter()
                                .map(|c| {
                                    Ok((
                                        *c,
                                        t.field(*c).cloned().ok_or(AlgError::UnknownColumn {
                                            rel: format!("{:?}", rel.cols()),
                                            col: *c,
                                        })?,
                                    ))
                                })
                                .collect::<Result<Vec<_>, AlgError>>()?,
                        )
                    };
                    if !groups.contains_key(&key) {
                        order.push(key.clone());
                    }
                    groups.entry(key).or_default().push(elem);
                }
                let mut out_cols = group_cols.clone();
                out_cols.push(*into);
                let mut out = Relation::new(out_cols);
                for key in order {
                    let elems = groups.remove(&key).expect("group exists");
                    let mut fields: Vec<(Sym, Value)> =
                        group_cols.iter().cloned().zip(key).collect();
                    fields.push((*into, Value::set(elems)));
                    out.insert(Value::tuple(fields));
                }
                Ok((out, dep))
            }
            AlgExpr::Unnest { input, col } => {
                let (rel, dep) = self.eval_dep(input)?;
                if !rel.has_col(*col) {
                    return Err(AlgError::UnknownColumn {
                        rel: format!("{:?}", rel.cols()),
                        col: *col,
                    });
                }
                let mut out = Relation::new(rel.cols().to_vec());
                for t in rel.iter() {
                    let coll = t.field(*col).expect("checked column");
                    let elems = coll.elements().ok_or(AlgError::NotACollection(*col))?;
                    for e in elems {
                        let fields: Vec<(Sym, Value)> = t
                            .as_tuple()
                            .expect("tuple")
                            .iter()
                            .map(|(l, v)| {
                                if l == col {
                                    (*l, e.clone())
                                } else {
                                    (*l, v.clone())
                                }
                            })
                            .collect();
                        out.insert(Value::tuple(fields));
                    }
                }
                Ok((out, dep))
            }
            AlgExpr::Aggregate {
                input,
                group,
                agg,
                on,
                into,
            } => {
                let (rel, dep) = self.eval_dep(input)?;
                let mut groups: FxHashMap<Vec<Value>, Vec<Value>> = FxHashMap::default();
                let mut order: Vec<Vec<Value>> = Vec::new();
                for t in rel.iter() {
                    let key: Vec<Value> = group
                        .iter()
                        .map(|c| {
                            t.field(*c).cloned().ok_or(AlgError::UnknownColumn {
                                rel: format!("{:?}", rel.cols()),
                                col: *c,
                            })
                        })
                        .collect::<Result<_, _>>()?;
                    let v = t.field(*on).cloned().ok_or(AlgError::UnknownColumn {
                        rel: format!("{:?}", rel.cols()),
                        col: *on,
                    })?;
                    if !groups.contains_key(&key) {
                        order.push(key.clone());
                    }
                    groups.entry(key).or_default().push(v);
                }
                let mut out_cols = group.clone();
                out_cols.push(*into);
                let mut out = Relation::new(out_cols);
                for key in order {
                    let vals = groups.remove(&key).expect("group exists");
                    let agg_v = apply_agg(*agg, &vals)?;
                    let mut fields: Vec<(Sym, Value)> = group.iter().cloned().zip(key).collect();
                    fields.push((*into, agg_v));
                    out.insert(Value::tuple(fields));
                }
                Ok((out, dep))
            }
        }
    }

    /// The `Emit`-over-`Join` fast path: probe the join's hash table and
    /// write head-layout tuples straight out of the probe, never
    /// materializing the joined relation. The hash table is cached under the
    /// *join* node's id with the same volatile-right discipline as the plain
    /// `Join` arm, so fusion does not change how often tables are built.
    ///
    /// Profiling attribution: the join node no longer passes through
    /// [`Evaluator::eval_dep`], so its [`OpStats`] are credited here by hand —
    /// inclusive time covers the input evaluations and the table build but
    /// *not* the probe loop, which stays on the emit node. The emit frame's
    /// `rows_in` is overwritten with the number of join pairs (the rows the
    /// absorbed reshape stages consumed), keeping row conservation: child
    /// `rows_out` == fused node `rows_in`.
    fn eval_emit_join(
        &mut self,
        join: &'a AlgExpr,
        left: &'a AlgExpr,
        right: &'a AlgExpr,
        pred: &Pred,
        cols: &[(Sym, Scalar)],
    ) -> Result<(Relation, bool), AlgError> {
        let start = self.profiling.then(Instant::now);
        let (l, ldep) = self.eval_dep(left)?;
        let key = self.node_id(join);
        let cached = self
            .join_tables
            .get(&key)
            .is_some_and(|t| t.left_cols == l.cols());
        let mut right_rows = 0u64;
        let mut volatile_right = None;
        if !cached {
            let (r, rdep) = self.eval_dep(right)?;
            right_rows = r.len() as u64;
            let table = build_join_table(&l, &r);
            self.note_hash_build(key);
            if rdep {
                // Right side is volatile: probe once, do not cache.
                volatile_right = Some(table);
            } else {
                self.join_tables.insert(key, table);
            }
        }
        let join_nanos = start.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let dep = ldep || volatile_right.is_some();
        let table = match &volatile_right {
            Some(t) => t,
            None => self.join_tables.get(&key).expect("cached join table"),
        };
        let (out, probes, pairs) = emit_probe(table, &l, pred, cols)?;
        self.note_probes(key, probes);
        if self.profiling {
            let s = self.op_stats.entry(key).or_default();
            s.evals += 1;
            s.rows_in += l.len() as u64 + right_rows;
            s.rows_out += pairs;
            s.nanos += join_nanos;
            if let Some(top) = self.frames.last_mut() {
                *top = pairs;
            }
        }
        Ok((out, dep))
    }
}

/// Evaluate an expression in a fresh single-shot session.
pub fn eval(expr: &AlgExpr, env: &Env) -> Result<Relation, AlgError> {
    Evaluator::new(env).eval(expr)
}

fn join_key(t: &Value, cols: &[Sym]) -> Vec<Value> {
    cols.iter()
        .map(|c| t.field(*c).expect("shared column").clone())
        .collect()
}

fn build_join_table(l: &Relation, r: &Relation) -> JoinTable {
    let shared: Vec<Sym> = l
        .cols()
        .iter()
        .filter(|c| r.has_col(**c))
        .copied()
        .collect();
    let right_only: Vec<Sym> = r
        .cols()
        .iter()
        .filter(|c| !l.has_col(**c))
        .copied()
        .collect();
    let mut rows: FxHashMap<Vec<Value>, Vec<Arc<Value>>> = FxHashMap::default();
    for rt in r.iter_shared() {
        rows.entry(join_key(rt, &shared))
            .or_default()
            .push(Arc::clone(rt));
    }
    JoinTable {
        left_cols: l.cols().to_vec(),
        shared,
        right_only,
        rows,
    }
}

fn probe_join_table(table: &JoinTable, l: &Relation) -> (Relation, u64) {
    let mut cols = table.left_cols.clone();
    cols.extend(table.right_only.iter().copied());
    let mut out = Relation::new(cols);
    let mut probes = 0u64;
    for lt in l.iter() {
        probes += 1;
        if let Some(matches) = table.rows.get(&join_key(lt, &table.shared)) {
            for rt in matches {
                let mut fields = lt.as_tuple().expect("tuple").to_vec();
                for c in &table.right_only {
                    fields.push((*c, rt.field(*c).expect("column").clone()));
                }
                out.insert(Value::tuple(fields));
            }
        }
    }
    (out, probes)
}

fn emit_out_cols(cols: &[(Sym, Scalar)]) -> Vec<Sym> {
    cols.iter().map(|(c, _)| *c).collect()
}

/// Build one output tuple of an `Emit` node from an input tuple.
fn emit_tuple(cols: &[(Sym, Scalar)], t: &Value) -> Result<Value, AlgError> {
    let fields: Vec<(Sym, Value)> = cols
        .iter()
        .map(|(c, s)| Ok((*c, eval_scalar(s, t)?)))
        .collect::<Result<_, AlgError>>()?;
    Ok(Value::tuple(fields))
}

/// Precompute a pure-column emit as positional copies: every scalar must be
/// a bare [`Scalar::Col`] resolvable in `in_cols`, and the output labels
/// must be distinct. Returns the output fields in sorted label order, each
/// paired with the field index it copies from — relation tuples store their
/// fields sorted by label, so the index is fixed across all rows. The
/// caller may then build `Value::Tuple` directly, skipping the per-tuple
/// label lookups and the canonicalizing sort.
fn pure_emit_template(cols: &[(Sym, Scalar)], in_cols: &[Sym]) -> Option<Vec<(Sym, usize)>> {
    let mut sorted_in: Vec<Sym> = in_cols.to_vec();
    sorted_in.sort();
    let mut tpl: Vec<(Sym, usize)> = cols
        .iter()
        .map(|(c, s)| match s {
            Scalar::Col(src) => sorted_in.binary_search(src).ok().map(|i| (*c, i)),
            _ => None,
        })
        .collect::<Option<_>>()?;
    tpl.sort_by_key(|&(c, _)| c);
    if tpl.windows(2).any(|w| w[0].0 == w[1].0) {
        return None;
    }
    Some(tpl)
}

/// One side of a join pair a pure probe template copies a field from.
enum PairSrc {
    Left(usize),
    Right(usize),
}

/// Probe a join table, filtering and reshaping each match directly into the
/// emit layout. Returns `(output, probes, pairs)` where `pairs` counts every
/// join match regardless of the residual predicate — the rows the join
/// *produced* and the absorbed reshape stages consumed.
fn emit_probe(
    table: &JoinTable,
    l: &Relation,
    pred: &Pred,
    cols: &[(Sym, Scalar)],
) -> Result<(Relation, u64, u64), AlgError> {
    let mut out = Relation::new(emit_out_cols(cols));
    let mut probes = 0u64;
    let mut pairs = 0u64;
    // Pure column remap with no residual predicate (the common rule-head
    // shape): resolve every output field to a fixed index on one side of
    // the probe pair up front, then copy fields by position — no combined
    // tuple, no label lookups, no canonicalizing sort.
    let pure: Option<Vec<(Sym, PairSrc)>> = if matches!(pred, Pred::True) {
        let mut lsorted = table.left_cols.clone();
        lsorted.sort();
        let mut rsorted: Vec<Sym> = table
            .shared
            .iter()
            .chain(table.right_only.iter())
            .copied()
            .collect();
        rsorted.sort();
        let tpl: Option<Vec<(Sym, PairSrc)>> = cols
            .iter()
            .map(|(c, s)| match s {
                Scalar::Col(src) => lsorted
                    .binary_search(src)
                    .ok()
                    .map(PairSrc::Left)
                    .or_else(|| rsorted.binary_search(src).ok().map(PairSrc::Right))
                    .map(|p| (*c, p)),
                _ => None,
            })
            .collect();
        tpl.map(|mut t| {
            t.sort_by_key(|&(c, _)| c);
            t
        })
        .filter(|t| t.windows(2).all(|w| w[0].0 != w[1].0))
    } else {
        None
    };
    // The probe key reads the shared columns off each left tuple; their
    // field indices are fixed too.
    let key_idx: Vec<usize> = {
        let mut lsorted = table.left_cols.clone();
        lsorted.sort();
        table
            .shared
            .iter()
            .map(|c| lsorted.binary_search(c).expect("shared ⊆ left cols"))
            .collect()
    };
    let mut key: Vec<Value> = Vec::with_capacity(key_idx.len());
    for lt in l.iter() {
        probes += 1;
        let lf = lt.as_tuple().expect("relation rows are tuples");
        key.clear();
        key.extend(key_idx.iter().map(|&i| lf[i].1.clone()));
        let Some(matches) = table.rows.get(&key) else {
            continue;
        };
        if let Some(tpl) = &pure {
            for rt in matches {
                pairs += 1;
                let rf = rt.as_tuple().expect("relation rows are tuples");
                out.insert(Value::Tuple(
                    tpl.iter()
                        .map(|(c, p)| match p {
                            PairSrc::Left(i) => (*c, lf[*i].1.clone()),
                            PairSrc::Right(i) => (*c, rf[*i].1.clone()),
                        })
                        .collect(),
                ));
            }
        } else {
            for rt in matches {
                pairs += 1;
                let mut fields = lf.to_vec();
                for c in &table.right_only {
                    fields.push((*c, rt.field(*c).expect("column").clone()));
                }
                let combined = Value::tuple(fields);
                if eval_pred(pred, &combined)? {
                    out.insert(emit_tuple(cols, &combined)?);
                }
            }
        }
    }
    Ok((out, probes, pairs))
}

fn build_key_table(l: &Relation, r: &Relation) -> KeyTable {
    let shared: Vec<Sym> = l
        .cols()
        .iter()
        .filter(|c| r.has_col(**c))
        .copied()
        .collect();
    let keys: FxHashSet<Vec<Value>> = r.iter().map(|t| join_key(t, &shared)).collect();
    KeyTable {
        left_cols: l.cols().to_vec(),
        shared,
        keys,
        right_empty: r.is_empty(),
    }
}

fn probe_key_table(table: &KeyTable, l: &Relation, keep_matches: bool) -> (Relation, u64) {
    let mut out = Relation::new(table.left_cols.clone());
    let mut probes = 0u64;
    for t in l.iter_shared() {
        probes += 1;
        // With no shared columns the right side acts as an existence test on
        // its emptiness.
        let matched = if table.shared.is_empty() {
            !table.right_empty
        } else {
            table.keys.contains(&join_key(t, &table.shared))
        };
        if matched == keep_matches {
            out.insert_shared(Arc::clone(t));
        }
    }
    (out, probes)
}

fn check_same_cols(l: &Relation, r: &Relation) -> Result<(), AlgError> {
    let mut lc: Vec<Sym> = l.cols().to_vec();
    let mut rc: Vec<Sym> = r.cols().to_vec();
    lc.sort();
    rc.sort();
    if lc != rc {
        return Err(AlgError::SchemaMismatch {
            left: l.cols().to_vec(),
            right: r.cols().to_vec(),
        });
    }
    Ok(())
}

/// Evaluate a scalar against a tuple.
pub fn eval_scalar(s: &Scalar, tuple: &Value) -> Result<Value, AlgError> {
    match s {
        Scalar::Col(c) => tuple.field(*c).cloned().ok_or(AlgError::UnknownColumn {
            rel: tuple.to_string(),
            col: *c,
        }),
        Scalar::Const(v) => Ok(v.clone()),
        Scalar::Add(a, b) => int_op(a, b, tuple, |x, y| x.checked_add(y)),
        Scalar::Sub(a, b) => int_op(a, b, tuple, |x, y| x.checked_sub(y)),
        Scalar::Mul(a, b) => int_op(a, b, tuple, |x, y| x.checked_mul(y)),
        Scalar::Div(a, b) => int_op(a, b, tuple, |x, y| x.checked_div(y)),
        Scalar::Tuple(fs) => {
            let mut fields = Vec::new();
            for (l, e) in fs {
                fields.push((*l, eval_scalar(e, tuple)?));
            }
            Ok(Value::tuple(fields))
        }
        Scalar::Field(e, l) => {
            let v = eval_scalar(e, tuple)?;
            v.field(*l)
                .cloned()
                .ok_or_else(|| AlgError::BadValue(format!("no field `{l}` in {v}")))
        }
    }
}

fn int_op(
    a: &Scalar,
    b: &Scalar,
    tuple: &Value,
    f: impl Fn(i64, i64) -> Option<i64>,
) -> Result<Value, AlgError> {
    let (x, y) = (eval_scalar(a, tuple)?, eval_scalar(b, tuple)?);
    match (x.as_int(), y.as_int()) {
        (Some(x), Some(y)) => f(x, y)
            .map(Value::Int)
            .ok_or_else(|| AlgError::BadValue("integer overflow or division by zero".into())),
        _ => Err(AlgError::BadValue(format!(
            "arithmetic on non-integers: {x}, {y}"
        ))),
    }
}

/// Evaluate a predicate against a tuple.
pub fn eval_pred(p: &Pred, tuple: &Value) -> Result<bool, AlgError> {
    match p {
        Pred::True => Ok(true),
        Pred::Cmp(op, a, b) => {
            let (x, y) = (eval_scalar(a, tuple)?, eval_scalar(b, tuple)?);
            Ok(match op {
                CmpOp::Eq => x == y,
                CmpOp::Ne => x != y,
                CmpOp::Lt => x < y,
                CmpOp::Le => x <= y,
                CmpOp::Gt => x > y,
                CmpOp::Ge => x >= y,
            })
        }
        Pred::In(e, coll) => {
            let (x, c) = (eval_scalar(e, tuple)?, eval_scalar(coll, tuple)?);
            c.contains(&x)
                .ok_or_else(|| AlgError::BadValue(format!("`in` on non-collection {c}")))
        }
        Pred::And(a, b) => Ok(eval_pred(a, tuple)? && eval_pred(b, tuple)?),
        Pred::Or(a, b) => Ok(eval_pred(a, tuple)? || eval_pred(b, tuple)?),
        Pred::Not(i) => Ok(!eval_pred(i, tuple)?),
    }
}

fn apply_agg(agg: AggFun, vals: &[Value]) -> Result<Value, AlgError> {
    let ints = || -> Result<Vec<i64>, AlgError> {
        vals.iter()
            .map(|v| {
                v.as_int()
                    .ok_or_else(|| AlgError::BadValue(format!("aggregate on non-integer {v}")))
            })
            .collect()
    };
    Ok(match agg {
        AggFun::Count => Value::Int(vals.len() as i64),
        AggFun::Sum => Value::Int(ints()?.iter().sum()),
        AggFun::Min => Value::Int(
            ints()?
                .into_iter()
                .min()
                .ok_or_else(|| AlgError::BadValue("min of empty group".into()))?,
        ),
        AggFun::Max => Value::Int(
            ints()?
                .into_iter()
                .max()
                .ok_or_else(|| AlgError::BadValue("max of empty group".into()))?,
        ),
        AggFun::Avg => {
            let xs = ints()?;
            if xs.is_empty() {
                return Err(AlgError::BadValue("avg of empty group".into()));
            }
            Value::Int(xs.iter().sum::<i64>() / xs.len() as i64)
        }
        AggFun::CollectSet => Value::set(vals.iter().cloned()),
        AggFun::CollectMultiset => Value::multiset(vals.iter().cloned()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge(a: i64, b: i64) -> Value {
        Value::tuple([("src", Value::Int(a)), ("dst", Value::Int(b))])
    }

    fn edges(pairs: &[(i64, i64)]) -> Relation {
        Relation::from_rows(["src", "dst"], pairs.iter().map(|&(a, b)| edge(a, b)))
    }

    fn env_with(name: &str, rel: Relation) -> Env {
        let mut env = Env::new();
        env.bind(name, rel);
        env
    }

    /// Close `base` under `step` the way the engine's compiled driver does:
    /// bind each round's new tuples as the volatile relation `delta` (which
    /// `step` reads), evaluate `step`, and fold the tuples not seen before
    /// into the volatile accumulator `acc` with `extend_binding`. Returns
    /// the closure and the number of rounds that evaluated `step`.
    fn close<'a>(
        session: &mut Evaluator<'a>,
        step: &'a AlgExpr,
        base: Relation,
    ) -> (Relation, u64) {
        let (acc, delta) = (Sym::new("tc"), Sym::new("d"));
        let mut total = base.clone();
        session.bind(acc, base.clone());
        let mut next = base;
        let mut rounds = 0;
        while !next.is_empty() {
            session.bind(delta, next);
            rounds += 1;
            let derived = session.eval(step).unwrap();
            let mut fresh = Relation::new(total.cols().to_vec());
            for t in derived.iter_shared() {
                if !total.contains(t) {
                    fresh.insert_shared(Arc::clone(t));
                }
            }
            total.extend_from(&fresh);
            session.extend_binding(acc, &fresh);
            next = fresh;
        }
        (total, rounds)
    }

    /// The delta step of the chain closure: `d(src, mid) ⋈ e(mid, dst)`.
    fn delta_join() -> AlgExpr {
        AlgExpr::Rel(Sym::new("d"))
            .rename("dst", "mid")
            .join(AlgExpr::Rel(Sym::new("e")).rename("src", "mid"))
    }

    #[test]
    fn select_and_project() {
        let env = env_with("e", edges(&[(1, 2), (2, 3), (3, 1)]));
        let expr = AlgExpr::Rel(Sym::new("e"))
            .select(Pred::Cmp(
                CmpOp::Gt,
                Scalar::col("src"),
                Scalar::Const(Value::Int(1)),
            ))
            .project(["dst"]);
        let r = eval(&expr, &env).unwrap();
        assert_eq!(r.len(), 2);
        assert!(r.contains(&Value::tuple([("dst", Value::Int(3))])));
        assert!(r.contains(&Value::tuple([("dst", Value::Int(1))])));
    }

    #[test]
    fn natural_join_composes_edges() {
        let env = env_with("e", edges(&[(1, 2), (2, 3)]));
        // e(src, dst) ⋈ e(dst → src', …) — rename to share the middle node.
        let left = AlgExpr::Rel(Sym::new("e")).rename("dst", "mid");
        let right = AlgExpr::Rel(Sym::new("e"))
            .rename("src", "mid")
            .rename("dst", "far");
        let joined = left.join(right).project(["src", "far"]);
        let r = eval(&joined, &env).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r.contains(&Value::tuple([
            ("src", Value::Int(1)),
            ("far", Value::Int(3))
        ])));
    }

    #[test]
    fn union_diff_intersect() {
        let env = {
            let mut e = Env::new();
            e.bind("a", edges(&[(1, 1), (2, 2)]));
            e.bind("b", edges(&[(2, 2), (3, 3)]));
            e
        };
        let u = eval(
            &AlgExpr::Rel(Sym::new("a")).union(AlgExpr::Rel(Sym::new("b"))),
            &env,
        )
        .unwrap();
        assert_eq!(u.len(), 3);
        let d = eval(
            &AlgExpr::Diff {
                left: Box::new(AlgExpr::Rel(Sym::new("a"))),
                right: Box::new(AlgExpr::Rel(Sym::new("b"))),
            },
            &env,
        )
        .unwrap();
        assert_eq!(d.len(), 1);
        assert!(d.contains(&edge(1, 1)));
        let i = eval(
            &AlgExpr::Intersect {
                left: Box::new(AlgExpr::Rel(Sym::new("a"))),
                right: Box::new(AlgExpr::Rel(Sym::new("b"))),
            },
            &env,
        )
        .unwrap();
        assert_eq!(i.len(), 1);
        assert!(i.contains(&edge(2, 2)));
    }

    #[test]
    fn union_requires_same_columns() {
        let mut env = Env::new();
        env.bind("a", edges(&[(1, 1)]));
        env.bind(
            "b",
            Relation::from_rows(["x"], [Value::tuple([("x", Value::Int(1))])]),
        );
        let err = eval(
            &AlgExpr::Rel(Sym::new("a")).union(AlgExpr::Rel(Sym::new("b"))),
            &env,
        )
        .unwrap_err();
        assert!(matches!(err, AlgError::SchemaMismatch { .. }));
    }

    #[test]
    fn extend_computes_columns() {
        let env = env_with("e", edges(&[(1, 2)]));
        let expr = AlgExpr::Extend {
            input: Box::new(AlgExpr::Rel(Sym::new("e"))),
            col: Sym::new("sum"),
            value: Scalar::Add(Box::new(Scalar::col("src")), Box::new(Scalar::col("dst"))),
        };
        let r = eval(&expr, &env).unwrap();
        let t = r.iter().next().unwrap();
        assert_eq!(t.field(Sym::new("sum")), Some(&Value::Int(3)));
    }

    #[test]
    fn nest_groups_into_sets_and_unnest_inverts() {
        let env = env_with("e", edges(&[(1, 2), (1, 3), (2, 4)]));
        let nested = AlgExpr::Nest {
            input: Box::new(AlgExpr::Rel(Sym::new("e"))),
            cols: vec![Sym::new("dst")],
            into: Sym::new("dsts"),
        };
        let n = eval(&nested, &env).unwrap();
        assert_eq!(n.len(), 2);
        assert!(n.contains(&Value::tuple([
            ("src", Value::Int(1)),
            ("dsts", Value::set([Value::Int(2), Value::Int(3)]))
        ])));
        // Unnest back.
        let un = AlgExpr::Unnest {
            input: Box::new(nested),
            col: Sym::new("dsts"),
        };
        let u = eval(&un, &env).unwrap();
        assert_eq!(u.len(), 3);
        assert!(u.contains(&Value::tuple([
            ("src", Value::Int(1)),
            ("dsts", Value::Int(3))
        ])));
    }

    #[test]
    fn aggregate_count_and_sum() {
        let env = env_with("e", edges(&[(1, 2), (1, 3), (2, 4)]));
        let expr = AlgExpr::Aggregate {
            input: Box::new(AlgExpr::Rel(Sym::new("e"))),
            group: vec![Sym::new("src")],
            agg: AggFun::Sum,
            on: Sym::new("dst"),
            into: Sym::new("total"),
        };
        let r = eval(&expr, &env).unwrap();
        assert!(r.contains(&Value::tuple([
            ("src", Value::Int(1)),
            ("total", Value::Int(5))
        ])));
        assert!(r.contains(&Value::tuple([
            ("src", Value::Int(2)),
            ("total", Value::Int(4))
        ])));
    }

    #[test]
    fn semijoin_and_antijoin_partition_the_left() {
        let mut env = Env::new();
        env.bind("l", edges(&[(1, 10), (2, 20), (3, 30)]));
        // Right side shares only `src`.
        let right = Relation::from_rows(
            ["src"],
            [
                Value::tuple([("src", Value::Int(1))]),
                Value::tuple([("src", Value::Int(3))]),
            ],
        );
        env.bind("r", right);
        let semi = eval(
            &AlgExpr::SemiJoin {
                left: Box::new(AlgExpr::Rel(Sym::new("l"))),
                right: Box::new(AlgExpr::Rel(Sym::new("r"))),
            },
            &env,
        )
        .unwrap();
        let anti = eval(
            &AlgExpr::AntiJoin {
                left: Box::new(AlgExpr::Rel(Sym::new("l"))),
                right: Box::new(AlgExpr::Rel(Sym::new("r"))),
            },
            &env,
        )
        .unwrap();
        assert_eq!(semi.len(), 2);
        assert_eq!(anti.len(), 1);
        assert!(anti.contains(&edge(2, 20)));
        // Semi ∪ anti = left.
        let mut both = semi.clone();
        both.extend_from(&anti);
        assert!(both.set_eq(env.get(Sym::new("l")).unwrap()));
    }

    #[test]
    fn antijoin_with_no_shared_columns_tests_emptiness() {
        let mut env = Env::new();
        env.bind("l", edges(&[(1, 10)]));
        env.bind("empty", Relation::new(["z"]));
        let anti = eval(
            &AlgExpr::AntiJoin {
                left: Box::new(AlgExpr::Rel(Sym::new("l"))),
                right: Box::new(AlgExpr::Rel(Sym::new("empty"))),
            },
            &env,
        )
        .unwrap();
        assert_eq!(anti.len(), 1); // right empty → nothing matches → keep all
        env.bind(
            "nonempty",
            Relation::from_rows(["z"], [Value::tuple([("z", Value::Int(0))])]),
        );
        let anti2 = eval(
            &AlgExpr::AntiJoin {
                left: Box::new(AlgExpr::Rel(Sym::new("l"))),
                right: Box::new(AlgExpr::Rel(Sym::new("nonempty"))),
            },
            &env,
        )
        .unwrap();
        assert_eq!(anti2.len(), 0);
    }

    #[test]
    fn product_rejects_overlap() {
        let env = env_with("e", edges(&[(1, 2)]));
        let err = eval(
            &AlgExpr::Product {
                left: Box::new(AlgExpr::Rel(Sym::new("e"))),
                right: Box::new(AlgExpr::Rel(Sym::new("e"))),
            },
            &env,
        )
        .unwrap_err();
        assert!(matches!(err, AlgError::OverlappingColumns(_)));
    }

    #[test]
    fn pred_in_tests_collection_membership() {
        let rel = Relation::from_rows(
            ["x", "s"],
            [Value::tuple([
                ("x", Value::Int(1)),
                ("s", Value::set([Value::Int(1), Value::Int(2)])),
            ])],
        );
        let env = env_with("r", rel);
        let expr = AlgExpr::Rel(Sym::new("r")).select(Pred::In(Scalar::col("x"), Scalar::col("s")));
        assert_eq!(eval(&expr, &env).unwrap().len(), 1);
    }

    #[test]
    fn unknown_relation_and_column_errors() {
        let env = Env::new();
        assert!(matches!(
            eval(&AlgExpr::Rel(Sym::new("ghost")), &env),
            Err(AlgError::UnknownRelation(_))
        ));
        let env = env_with("e", edges(&[(1, 2)]));
        assert!(matches!(
            eval(&AlgExpr::Rel(Sym::new("e")).project(["zzz"]), &env),
            Err(AlgError::UnknownColumn { .. })
        ));
    }

    /// The closure's join against the stable edge relation must build its
    /// hash table once for the whole session, not once per round.
    #[test]
    fn join_table_is_built_once_across_fixpoint_rounds() {
        let chain: Vec<(i64, i64)> = (0..20).map(|i| (i, i + 1)).collect();
        let env = env_with("e", edges(&chain));
        let step = delta_join().project(["src", "dst"]);
        let mut session = Evaluator::new(&env);
        let (r, rounds) = close(&mut session, &step, edges(&chain));
        assert_eq!(r.len(), 21 * 20 / 2);
        let stats = session.stats();
        // A 21-node chain closes in 20 delta rounds (the last one derives
        // nothing); the right side of the join is the stable renamed edge
        // relation, so exactly one hash build happens.
        assert_eq!(stats.hash_builds, 1);
        assert_eq!(rounds, 20);
        assert!(stats.probes > rounds);
    }

    /// Volatile-free sub-expressions are evaluated once per session even when
    /// referenced repeatedly across rounds.
    #[test]
    fn stable_subexpressions_are_memoized_across_rounds() {
        let pairs = [(1, 2), (2, 3), (3, 4), (4, 5)];
        let env = env_with("e", edges(&pairs));
        // The filtered edge set is volatile-free; the union forces it to be
        // (re-)consulted every round.
        let filtered = AlgExpr::Rel(Sym::new("e")).select(Pred::Cmp(
            CmpOp::Gt,
            Scalar::col("src"),
            Scalar::Const(Value::Int(0)),
        ));
        let step = delta_join().project(["src", "dst"]).union(filtered);
        let mut session = Evaluator::new(&env);
        let (r, rounds) = close(&mut session, &step, edges(&pairs));
        assert_eq!(r.len(), 5 * 4 / 2);
        let stats = session.stats();
        assert!(rounds >= 2);
        // The select node is computed once; every later round hits the memo.
        assert!(stats.memo_hits >= rounds - 1);
        assert_eq!(stats.hash_builds, 1);
    }

    /// Rebinding through [`Evaluator::bind`] marks the name volatile, so
    /// results reflect the latest binding rather than a stale cache.
    #[test]
    fn bound_names_are_volatile_and_never_stale() {
        let env = Env::new();
        let mut session = Evaluator::new(&env);
        let expr = AlgExpr::Rel(Sym::new("d")).select(Pred::True);
        session.bind("d", edges(&[(1, 2)]));
        assert_eq!(session.eval(&expr).unwrap().len(), 1);
        session.bind("d", edges(&[(1, 2), (3, 4)]));
        assert_eq!(session.eval(&expr).unwrap().len(), 2);
    }

    /// Per-node profiling attributes hash builds, probes and row counts to
    /// the operator nodes that incurred them, without disturbing the
    /// session-level [`EvalStats`].
    #[test]
    fn profiling_attributes_work_to_operator_nodes() {
        let chain: Vec<(i64, i64)> = (0..20).map(|i| (i, i + 1)).collect();
        let env = env_with("e", edges(&chain));
        let step = delta_join().project(["src", "dst"]);
        let mut session = Evaluator::new(&env);
        session.enable_profiling();
        let (r, rounds) = close(&mut session, &step, edges(&chain));
        assert_eq!(r.len(), 21 * 20 / 2);
        assert_eq!(rounds, 20);
        // Session-level counters are untouched by profiling.
        assert_eq!(session.stats().hash_builds, 1);

        let AlgExpr::Project { input: join, .. } = &step else {
            panic!("unexpected step {step:?}");
        };
        let join_stats = session.op_stats_for(join);
        // The single hash build and all probes land on the join node.
        assert_eq!(join_stats.hash_builds, 1);
        assert_eq!(join_stats.probes, session.stats().probes);
        assert_eq!(join_stats.evals, 20);
        let project_stats = session.op_stats_for(&step);
        assert_eq!(project_stats.evals, 20);
        // The projection consumes exactly what the join produced.
        assert_eq!(project_stats.rows_in, join_stats.rows_out);
        assert!(project_stats.nanos >= join_stats.nanos);
        // An un-profiled session reports zeroed stats for every node.
        let mut cold = Evaluator::new(&env);
        close(&mut cold, &step, edges(&chain));
        assert_eq!(cold.op_stats_for(join), OpStats::default());
    }

    /// Re-registering a plan hands out fresh node ids, so operator stats and
    /// memo entries recorded for a dropped plan can never be served to a new
    /// plan that happens to reuse the same allocation addresses.
    #[test]
    fn reregistering_a_plan_orphans_stale_stats_and_memo() {
        let env = env_with("e", edges(&[(1, 2), (2, 3)]));
        let plan = AlgExpr::Rel(Sym::new("e"))
            .select(Pred::Cmp(
                CmpOp::Gt,
                Scalar::col("src"),
                Scalar::Const(Value::Int(1)),
            ))
            .project(["dst"]);
        let mut session = Evaluator::new(&env);
        session.enable_profiling();
        session.register_plan(&plan);
        let first_id = session.node_id_of(&plan).expect("registered");
        session.eval(&plan).unwrap();
        session.eval(&plan).unwrap();
        let warm = session.op_stats_for(&plan);
        assert_eq!(warm.evals, 2);
        assert_eq!(warm.memo_hits, 1);

        // Simulate a recompile whose fresh plan lands on the same addresses:
        // re-register the very same nodes. Ids must change and every cache
        // keyed by the old ids must be unreachable.
        session.register_plan(&plan);
        let second_id = session.node_id_of(&plan).expect("registered");
        assert_ne!(first_id, second_id);
        assert_eq!(session.op_stats_for(&plan), OpStats::default());
        let memo_hits_before = session.stats().memo_hits;
        session.eval(&plan).unwrap();
        // Recomputed, not answered from the orphaned memo entry.
        assert_eq!(session.stats().memo_hits, memo_hits_before);
        assert_eq!(session.op_stats_for(&plan).evals, 1);
    }

    /// The fused emit-over-join path conserves rows across the operator
    /// boundary — the join's `rows_out` is exactly the emit's `rows_in` — and
    /// the emit's inclusive time covers the join's, so rendered self-times
    /// can never go negative or double-count.
    #[test]
    fn emit_over_join_profiles_conserve_rows() {
        let chain: Vec<(i64, i64)> = (0..20).map(|i| (i, i + 1)).collect();
        let env = env_with("e", edges(&chain));
        let step = AlgExpr::Emit {
            input: Box::new(delta_join()),
            pred: Pred::True,
            cols: vec![
                (Sym::new("src"), Scalar::col("src")),
                (Sym::new("dst"), Scalar::col("dst")),
            ],
        };
        let mut session = Evaluator::new(&env);
        session.enable_profiling();
        let (r, rounds) = close(&mut session, &step, edges(&chain));
        assert_eq!(r.len(), 21 * 20 / 2);
        assert_eq!(rounds, 20);
        // The stable right side is still built exactly once and all probes
        // go through the cached table, same as the unfused join.
        assert_eq!(session.stats().hash_builds, 1);

        let AlgExpr::Emit { input: join, .. } = &step else {
            panic!("unexpected step {step:?}");
        };
        let emit_stats = session.op_stats_for(&step);
        let join_stats = session.op_stats_for(join);
        // The join is credited once per round even though the emit drives
        // its probe directly.
        assert_eq!(join_stats.evals, 20);
        assert_eq!(join_stats.hash_builds, 1);
        assert!(join_stats.rows_out > 0);
        // Row conservation: every join pair flows into the emit, nothing is
        // double-counted or lost.
        assert_eq!(emit_stats.rows_in, join_stats.rows_out);
        // Inclusive times nest, so self = emit − join stays non-negative.
        assert!(emit_stats.nanos >= join_stats.nanos);
    }
}
