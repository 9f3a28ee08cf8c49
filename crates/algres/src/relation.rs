//! NF² relations: sets of labeled tuples over complex values.
//!
//! A relation knows its column list and stores tuples in insertion order
//! with hash-based deduplication — iteration is deterministic for a
//! deterministic construction sequence, which the fixpoint evaluators rely
//! on for reproducible runs.
//!
//! Tuples are held behind shared handles (`Arc<Value>`) — the same handles
//! the instance's association extents hold — and the row storage sits behind
//! a copy-on-write body. Cloning a relation, scanning it, or filing one of
//! its tuples into another relation bumps a reference count and never deep
//! copies a tuple. The first insert into a relation whose body is shared
//! copies the body's handles (not the tuples), so the other owners never
//! observe the write.

use std::sync::Arc;

use rustc_hash::FxHashSet;

use logres_model::{Sym, Value};

/// A set of tuples with a fixed column list.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    cols: Vec<Sym>,
    /// Row storage, shared by clones until one of them is written.
    body: Arc<Body>,
}

/// The copy-on-write part of a [`Relation`].
#[derive(Debug, Clone, Default)]
struct Body {
    /// Insertion-ordered tuple storage.
    rows: Vec<Arc<Value>>,
    /// Hash membership index over `rows` (the same handles).
    index: FxHashSet<Arc<Value>>,
}

impl Relation {
    /// An empty relation with the given columns.
    pub fn new<I, S>(cols: I) -> Relation
    where
        I: IntoIterator<Item = S>,
        S: Into<Sym>,
    {
        Relation {
            cols: cols.into_iter().map(Into::into).collect(),
            body: Arc::default(),
        }
    }

    /// Build a relation from rows of `(label, value)` pairs; the column list
    /// is taken from the declared `cols`.
    pub fn from_rows<I, S>(cols: I, rows: impl IntoIterator<Item = Value>) -> Relation
    where
        I: IntoIterator<Item = S>,
        S: Into<Sym>,
    {
        Relation::from_shared(cols, rows.into_iter().map(Arc::new))
    }

    /// Build a relation from shared tuple handles, keeping the handles (no
    /// tuple is copied).
    pub fn from_shared<I, S>(cols: I, rows: impl IntoIterator<Item = Arc<Value>>) -> Relation
    where
        I: IntoIterator<Item = S>,
        S: Into<Sym>,
    {
        let mut r = Relation::new(cols);
        for row in rows {
            r.insert_shared(row);
        }
        r
    }

    /// The column list.
    pub fn cols(&self) -> &[Sym] {
        &self.cols
    }

    /// Does the relation have this column?
    pub fn has_col(&self, c: Sym) -> bool {
        self.cols.contains(&c)
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.body.rows.len()
    }

    /// Is the relation empty?
    pub fn is_empty(&self) -> bool {
        self.body.rows.is_empty()
    }

    /// Insert a tuple; returns whether it was new. The tuple must be a
    /// [`Value::Tuple`] whose labels are exactly the relation's columns
    /// (checked in debug builds).
    pub fn insert(&mut self, tuple: Value) -> bool {
        self.insert_shared(Arc::new(tuple))
    }

    /// Insert a shared tuple handle; returns whether it was new. The handle
    /// itself is stored, so the relation and every other holder of it share
    /// one tuple. Same label contract as [`Relation::insert`].
    pub fn insert_shared(&mut self, tuple: Arc<Value>) -> bool {
        debug_assert!(
            {
                let mut expect: Vec<Sym> = self.cols.clone();
                expect.sort();
                tuple
                    .as_tuple()
                    .map(|fs| fs.iter().map(|(l, _)| *l).collect::<Vec<_>>())
                    == Some(expect)
            },
            "tuple labels do not match relation columns {:?}: {tuple}",
            self.cols
        );
        // A duplicate must not trigger the copy-on-write of a shared body.
        if Arc::get_mut(&mut self.body).is_none() && self.body.index.contains(&tuple) {
            return false;
        }
        let body = Arc::make_mut(&mut self.body);
        if !body.index.insert(Arc::clone(&tuple)) {
            return false;
        }
        body.rows.push(tuple);
        true
    }

    /// Membership test.
    pub fn contains(&self, tuple: &Value) -> bool {
        self.body.index.contains(tuple)
    }

    /// Iterate tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Value> + '_ {
        self.body.rows.iter().map(|t| &**t)
    }

    /// Iterate the shared tuple handles in insertion order.
    pub fn iter_shared(&self) -> std::slice::Iter<'_, Arc<Value>> {
        self.body.rows.iter()
    }

    /// Extend with all tuples of another relation (same columns); returns
    /// how many were new. The other relation's handles are shared, not
    /// copied.
    pub fn extend_from(&mut self, other: &Relation) -> usize {
        let mut n = 0;
        for t in other.iter_shared() {
            if self.insert_shared(Arc::clone(t)) {
                n += 1;
            }
        }
        n
    }

    /// The field of a row tuple by column label.
    pub fn field(tuple: &Value, col: Sym) -> Option<&Value> {
        tuple.field(col)
    }

    /// Do two relations contain the same tuple set (ignoring order)?
    pub fn set_eq(&self, other: &Relation) -> bool {
        self.len() == other.len() && self.iter().all(|t| other.contains(t))
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.cols == other.cols && self.set_eq(other)
    }
}

impl Eq for Relation {}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(a: i64, b: i64) -> Value {
        Value::tuple([("a", Value::Int(a)), ("b", Value::Int(b))])
    }

    #[test]
    fn insert_deduplicates() {
        let mut r = Relation::new(["a", "b"]);
        assert!(r.insert(row(1, 2)));
        assert!(!r.insert(row(1, 2)));
        assert!(r.insert(row(2, 1)));
        assert_eq!(r.len(), 2);
        assert!(r.contains(&row(1, 2)));
    }

    #[test]
    fn iteration_preserves_insertion_order() {
        let mut r = Relation::new(["a", "b"]);
        r.insert(row(3, 3));
        r.insert(row(1, 1));
        r.insert(row(2, 2));
        let got: Vec<i64> = r
            .iter()
            .map(|t| t.field(Sym::new("a")).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(got, vec![3, 1, 2]);
    }

    #[test]
    fn set_equality_ignores_order() {
        let mut r1 = Relation::new(["a", "b"]);
        let mut r2 = Relation::new(["a", "b"]);
        r1.insert(row(1, 2));
        r1.insert(row(3, 4));
        r2.insert(row(3, 4));
        r2.insert(row(1, 2));
        assert_eq!(r1, r2);
        r2.insert(row(5, 6));
        assert_ne!(r1, r2);
    }

    #[test]
    fn extend_from_counts_new_rows() {
        let mut r1 = Relation::new(["a", "b"]);
        r1.insert(row(1, 2));
        let mut r2 = Relation::new(["a", "b"]);
        r2.insert(row(1, 2));
        r2.insert(row(3, 4));
        assert_eq!(r1.extend_from(&r2), 1);
        assert_eq!(r1.len(), 2);
    }

    #[test]
    fn clones_and_extends_share_tuple_handles() {
        let r = Relation::from_rows(["a", "b"], [row(1, 2), row(3, 4)]);
        let c = r.clone();
        assert!(c
            .iter_shared()
            .zip(r.iter_shared())
            .all(|(x, y)| Arc::ptr_eq(x, y)));
        let mut e = Relation::new(["a", "b"]);
        e.extend_from(&r);
        assert!(e
            .iter_shared()
            .zip(r.iter_shared())
            .all(|(x, y)| Arc::ptr_eq(x, y)));
    }

    #[test]
    fn inserting_into_a_clone_leaves_the_original_unchanged() {
        let original = Relation::from_rows(["a", "b"], [row(1, 2)]);
        let mut copy = original.clone();
        assert!(copy.insert(row(3, 4)));
        assert!(!copy.insert(row(1, 2)));
        assert_eq!(original.len(), 1);
        assert!(!original.contains(&row(3, 4)));
        assert_eq!(copy.len(), 2);
        // The write copied the body's handles, not the shared tuple.
        assert!(Arc::ptr_eq(
            original.iter_shared().next().unwrap(),
            copy.iter_shared().next().unwrap()
        ));
    }

    #[test]
    fn evaluator_scans_share_the_bound_relations_rows() {
        let stable = Relation::from_rows(["a", "b"], [row(1, 2), row(3, 4)]);
        let volatile = Relation::from_rows(["a", "b"], [row(5, 6)]);
        let mut env = crate::Env::new();
        env.bind("s", stable.clone());
        let mut ev = crate::Evaluator::new(&env);
        ev.bind("v", volatile.clone());
        let scan_s = crate::AlgExpr::Rel(Sym::new("s"));
        let scan_v = crate::AlgExpr::Rel(Sym::new("v"));
        for (expr, bound) in [(&scan_s, &stable), (&scan_v, &volatile)] {
            let got = ev.eval(expr).unwrap();
            assert_eq!(got.len(), bound.len());
            assert!(got
                .iter_shared()
                .zip(bound.iter_shared())
                .all(|(x, y)| Arc::ptr_eq(x, y)));
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "labels do not match")]
    fn mismatched_labels_panic_in_debug() {
        let mut r = Relation::new(["a", "b"]);
        r.insert(Value::tuple([("x", Value::Int(1))]));
    }
}
