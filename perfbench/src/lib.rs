//! End-to-end and per-layer benchmark of the public `logres::Database` API.
//!
//! Three closed-loop workloads with one client, each generated from a seed:
//!
//! * `genealogy-fixpoint` — `Database::instance()` of a stratified program
//!   (`ancestor`, same-generation `sg`, `leaf` over negation);
//! * `ancestry-session` — goal queries against a persistent `ancestor`
//!   view, interleaved with singleton RIDV inserts and deletions;
//! * `university-objects` — Examples 3.1/3.4: object creation, a class
//!   join, the interesting-pair module, and deletion at the superclass.
//!
//! Every answer is checked against a reference computed in [`reference`].
//! The traced run replays each operation through the layer functions
//! `Database` calls ([`replay`]) and times every call from outside.

pub mod gen;
pub mod reference;
pub mod replay;
pub mod report;

use std::time::Instant;

use logres::engine::EvalOptions;
use logres::model::Value;
use logres::{Database, Mode, Semantics, Sym};

use replay::{OpResult, Replay};

/// One operation of a workload cycle.
#[derive(Debug, Clone)]
pub enum Op {
    /// `Database::instance()`.
    Instance,
    /// `Database::query(src)`.
    Query(String),
    /// `Database::apply_source(src, mode)`.
    Apply(String, Mode),
}

impl Op {
    /// Does the operation change the state (a data-variant application)?
    pub fn is_write(&self) -> bool {
        matches!(self, Op::Apply(_, mode) if mode.data_variant())
    }

    /// Run the operation on the database under test.
    pub fn run(&self, db: &mut Database) -> Result<OpResult, String> {
        let err = |e: logres::CoreError| e.to_string();
        match self {
            Op::Instance => db
                .instance()
                .map(|(i, _)| OpResult::Instance(i))
                .map_err(err),
            Op::Query(src) => db.query(src).map(OpResult::Rows).map_err(err),
            Op::Apply(src, mode) => {
                let out = db.apply_source(src, *mode).map_err(err)?;
                Ok(match out.answer {
                    Some(rows) => OpResult::Rows(rows),
                    None => OpResult::Applied(db.edb().fact_count()),
                })
            }
        }
    }

    /// Run the operation on the replay.
    pub fn replay(&self, r: &mut Replay) -> Result<OpResult, String> {
        match self {
            Op::Instance => r.instance(),
            Op::Query(src) => r.query(src),
            Op::Apply(src, mode) => r.apply(src, *mode),
        }
    }
}

/// What a correct result of an operation looks like.
#[derive(Debug, Clone)]
pub enum Expect {
    /// Association sizes of the computed instance.
    Sizes(Vec<(Sym, usize)>),
    /// The one-column answer, as a sorted list of values.
    Answer(Vec<Value>),
    /// Number of answer rows.
    Rows(usize),
    /// Extent sizes after a data-variant operation: in the EDB (class or
    /// association), and in the maintained view (checked in the traced
    /// run, whose replica owns one).
    Extents {
        /// Expected EDB extents.
        edb: Vec<(Sym, usize)>,
        /// Expected association sizes of the maintained view.
        view: Vec<(Sym, usize)>,
    },
}

impl Expect {
    /// Check a result (and the database after it) against the reference.
    pub fn check(&self, db: &Database, out: &OpResult) -> Result<(), String> {
        match (self, out) {
            (Expect::Sizes(want), OpResult::Instance(inst)) => {
                for (pred, n) in want {
                    let got = inst.assoc_len(*pred);
                    if got != *n {
                        return Err(format!("{pred}: {got} facts, reference {n}"));
                    }
                }
                Ok(())
            }
            (Expect::Answer(want), OpResult::Rows(rows)) => {
                let mut got: Vec<Value> = rows
                    .iter()
                    .filter_map(|r| r.first().map(|(_, v)| v.clone()))
                    .collect();
                got.sort();
                if &got != want {
                    return Err(format!("answer {got:?}, reference {want:?}"));
                }
                Ok(())
            }
            (Expect::Rows(want), OpResult::Rows(rows)) => {
                if rows.len() != *want {
                    return Err(format!("{} rows, reference {want}", rows.len()));
                }
                Ok(())
            }
            (Expect::Extents { edb: want, .. }, OpResult::Applied(_)) => {
                for (pred, n) in want {
                    let got = db.edb().class_len(*pred) + db.edb().assoc_len(*pred);
                    if got != *n {
                        return Err(format!("{pred}: extent {got}, reference {n}"));
                    }
                }
                Ok(())
            }
            (want, got) => Err(format!("unexpected result {got:?} for {want:?}")),
        }
    }

    /// Check the replica's maintained view against the reference.
    pub fn check_view(&self, replay: &Replay) -> Result<(), String> {
        let Expect::Extents { view: want, .. } = self else {
            return Ok(());
        };
        if want.is_empty() {
            return Ok(());
        }
        let inst = replay.view_instance().ok_or("no maintained view")?;
        for (pred, n) in want {
            let got = inst.assoc_len(*pred);
            if got != *n {
                return Err(format!("maintained {pred}: {got} facts, reference {n}"));
            }
        }
        Ok(())
    }
}

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = [
    "genealogy-fixpoint",
    "ancestry-session",
    "university-objects",
];

/// The semantics every workload evaluates under (the replay mirrors it).
pub const SEMANTICS: Semantics = Semantics::Stratified;

/// A database from generated source, under [`SEMANTICS`] with one thread.
fn database(src: &str) -> Result<Database, String> {
    let mut db = Database::from_source(src).map_err(|e| e.to_string())?;
    db.set_semantics(SEMANTICS);
    db.set_options(EvalOptions {
        threads: 1,
        ..EvalOptions::default()
    });
    Ok(db)
}

/// A workload: pre-generated set-up sources, a seeded operation stream
/// with reference answers, and the routes its operations must take.
pub trait Workload {
    /// Build the database from the generated sources (the timed set-up).
    fn setup(&self) -> Result<Database, String>;
    /// The operations of cycle `j` (numbered from 1) with their expected
    /// results. Every cycle leaves the state as it found it.
    fn cycle(&mut self, j: u64) -> Vec<(Op, Expect)>;
    /// Checks after the loop; `replay` is the traced run's replica.
    fn finish(&mut self, _db: &Database, _replay: Option<&Replay>) -> Result<(), String> {
        Ok(())
    }
    /// Does every evaluation run on compiled plans (`true`), or must every
    /// evaluation fall back to the interpreter (`false`)?
    fn compiled(&self) -> bool;
    /// Does the workload apply maintainable updates (and so need the
    /// replay to own a materialized view)?
    fn maintained(&self) -> bool {
        false
    }
    /// The generated set-up sources, concatenated.
    fn setup_sources(&self) -> String;
    /// The set-up sources and those of the first eight cycles (for the
    /// determinism test).
    fn sources(&mut self) -> String {
        let mut all = self.setup_sources();
        for j in 1..=8 {
            for (op, _) in self.cycle(j) {
                if let Op::Query(s) | Op::Apply(s, _) = op {
                    all.push_str(&s);
                }
            }
        }
        all
    }
}

/// Build a workload by name.
pub fn workload(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "genealogy-fixpoint" => Box::new(Fixpoint::new(gen::GENEALOGY, seed)),
        "ancestry-session" => Box::new(SessionLoad::new(gen::SESSION_PERSONS, seed)),
        "university-objects" => Box::new(Objects::new(gen::UNIVERSITY, seed)),
        _ => return None,
    })
}

// ----- genealogy-fixpoint ----------------------------------------------------

/// `Database::instance()` over the genealogy program, stratified.
pub struct Fixpoint {
    src: String,
    sizes: Vec<(Sym, usize)>,
}

impl Fixpoint {
    /// Generate the workload at `size` for `seed`.
    pub fn new(size: gen::GenealogySize, seed: u64) -> Fixpoint {
        let g = gen::genealogy(size, seed);
        let (ancestor, sg, leaf) = reference::genealogy_sizes(&g);
        Fixpoint {
            src: gen::genealogy_source(&g),
            sizes: vec![
                (Sym::new("ancestor"), ancestor),
                (Sym::new("sg"), sg),
                (Sym::new("leaf"), leaf),
            ],
        }
    }
}

impl Workload for Fixpoint {
    fn setup(&self) -> Result<Database, String> {
        database(&self.src)
    }

    fn cycle(&mut self, _j: u64) -> Vec<(Op, Expect)> {
        vec![(Op::Instance, Expect::Sizes(self.sizes.clone()))]
    }

    fn compiled(&self) -> bool {
        true
    }

    fn setup_sources(&self) -> String {
        self.src.clone()
    }
}

// ----- ancestry-session ------------------------------------------------------

/// Point queries and singleton updates against a persistent view.
pub struct SessionLoad {
    data: gen::Session,
    base: String,
    base_edges: usize,
    base_ancestors: usize,
}

impl SessionLoad {
    /// Generate the workload over `persons` persons for `seed`.
    pub fn new(persons: usize, seed: u64) -> SessionLoad {
        let data = gen::session(persons, seed);
        let base = data.base_source();
        let base_edges = data.parents.iter().flatten().count();
        let base_ancestors = (0..persons)
            .map(|k| reference::ancestors(&data.parents, k).len())
            .sum();
        SessionLoad {
            data,
            base,
            base_edges,
            base_ancestors,
        }
    }

    fn names(ids: Vec<usize>) -> Vec<Value> {
        let mut v: Vec<Value> = ids
            .into_iter()
            .map(|i| Value::str(format!("p{i}")))
            .collect();
        v.sort();
        v
    }

    /// `parent` in the EDB and `ancestor` in the view, `extra` edges and
    /// `derived` ancestor facts above the base.
    fn extents(&self, extra: usize, derived: usize) -> Expect {
        Expect::Extents {
            edb: vec![(Sym::new("parent"), self.base_edges + extra)],
            view: vec![(Sym::new("ancestor"), self.base_ancestors + derived)],
        }
    }
}

impl Workload for SessionLoad {
    fn setup(&self) -> Result<Database, String> {
        let err = |e: logres::CoreError| e.to_string();
        let mut db = database(&self.base)?;
        db.apply_source(gen::ANCESTOR_VIEW, Mode::Radi)
            .map_err(err)?;
        // The first maintainable update builds the materialized view; run
        // one (cycle 0, reverted at once) so set-up includes it.
        db.apply_source(&gen::insert_parent(0, 0), Mode::Ridv)
            .map_err(err)?;
        db.apply_source(&gen::delete_parent(0, 0), Mode::Ridv)
            .map_err(err)?;
        Ok(db)
    }

    fn cycle(&mut self, j: u64) -> Vec<(Op, Expect)> {
        let k = self.data.next_key();
        let below = reference::descendants(&self.data.parents, k);
        // The fresh parent becomes an ancestor of K and of everyone below.
        let inserted = self.extents(1, 1 + below.len());
        let desc = Self::names(below);
        let anc = Self::names(reference::ancestors(&self.data.parents, k));
        vec![
            (Op::Query(gen::descendants_query(k)), Expect::Answer(desc)),
            (Op::Query(gen::ancestors_query(k)), Expect::Answer(anc)),
            (Op::Apply(gen::insert_parent(j, k), Mode::Ridv), inserted),
            (
                Op::Apply(gen::delete_parent(j, k), Mode::Ridv),
                self.extents(0, 0),
            ),
        ]
    }

    /// The maintained view must equal a `set_incremental(false)`
    /// rederivation: the traced run's replica view after the whole loop,
    /// and a fresh view through one more insert and deletion.
    fn finish(&mut self, db: &Database, replay: Option<&Replay>) -> Result<(), String> {
        let err = |e: logres::CoreError| e.to_string();
        let mut full = db.clone();
        full.set_incremental(false);
        let rederived = full.instance().map_err(err)?.0;
        if let Some(r) = replay {
            if r.view_instance() != Some(&rederived) {
                return Err("the replayed maintained view differs from rederivation".to_owned());
            }
        }
        let mut shadow = Replay::new(db.state().clone(), SEMANTICS);
        shadow.build_view()?;
        // A family root: the new edge puts a whole family below it.
        let k = self.data.next_key() / gen::SESSION_FAMILY * gen::SESSION_FAMILY;
        for src in [
            gen::insert_parent(u64::MAX, k),
            gen::delete_parent(u64::MAX, k),
        ] {
            shadow.apply(&src, Mode::Ridv)?;
            full.apply_source(&src, Mode::Ridv).map_err(err)?;
            let rederived = full.instance().map_err(err)?.0;
            if shadow.view_instance() != Some(&rederived) || shadow.state().edb != *full.edb() {
                return Err(format!(
                    "maintained view differs from rederivation after `{src}`"
                ));
            }
        }
        Ok(())
    }

    fn compiled(&self) -> bool {
        true
    }

    fn maintained(&self) -> bool {
        true
    }

    fn setup_sources(&self) -> String {
        self.base.clone()
    }
}

// ----- university-objects ----------------------------------------------------

/// Object creation, class join, invention and superclass deletion.
pub struct Objects {
    data: gen::University,
    base: String,
    load: String,
    per_school: Vec<usize>,
    pairs: usize,
}

impl Objects {
    /// Generate the workload at `size` for `seed`.
    pub fn new(size: gen::UniversitySize, seed: u64) -> Objects {
        let data = gen::university(size, seed);
        Objects {
            base: data.base_source(),
            load: data.load_source(),
            per_school: reference::students_per_school(&data),
            pairs: reference::interesting_pairs(&data),
            data,
        }
    }

    fn extents(&self, batch: usize) -> Expect {
        let students = self.data.size.students + batch;
        // Every student and every professor (one per school) is a person.
        let persons = students + self.data.size.schools;
        Expect::Extents {
            edb: vec![
                (Sym::new("student"), students),
                (Sym::new("person"), persons),
            ],
            view: Vec::new(),
        }
    }
}

impl Workload for Objects {
    fn setup(&self) -> Result<Database, String> {
        let err = |e: logres::CoreError| e.to_string();
        let mut db = database(&self.base)?;
        db.apply_source(&self.load, Mode::Ridv).map_err(err)?;
        Ok(db)
    }

    fn cycle(&mut self, j: u64) -> Vec<(Op, Expect)> {
        let batch = self.data.next_batch();
        let school = self.data.next_school();
        let in_school = self.per_school[school] + batch.iter().filter(|s| **s == school).count();
        vec![
            (
                Op::Apply(gen::create_batch(j, &batch), Mode::Ridv),
                self.extents(batch.len()),
            ),
            (
                Op::Apply(gen::students_of(j, school), Mode::Ridi),
                Expect::Rows(in_school),
            ),
            (
                Op::Apply(gen::interesting_pairs(j), Mode::Ridi),
                Expect::Rows(self.pairs),
            ),
            (Op::Apply(gen::delete_batch(j), Mode::Ridv), self.extents(0)),
        ]
    }

    fn compiled(&self) -> bool {
        false
    }

    fn setup_sources(&self) -> String {
        self.base.clone() + &self.load
    }
}

/// Set-ups per run, at least; `setup_s` is their median.
pub const MIN_SETUPS: usize = 5;

/// Set-up time per run, at least: cheap set-ups repeat until it is spent,
/// so their median rests on enough samples to be steady.
pub const SETUP_BUDGET_S: f64 = 2.0;

/// Time repeated set-ups and keep the last database.
pub fn timed_setups(wl: &dyn Workload) -> Result<(Database, Vec<f64>), String> {
    let mut times = Vec::new();
    loop {
        let start = Instant::now();
        let db = wl.setup()?;
        times.push(start.elapsed().as_secs_f64());
        if times.len() >= MIN_SETUPS && times.iter().sum::<f64>() >= SETUP_BUDGET_S {
            return Ok((db, times));
        }
    }
}
