//! Seeded generators: every workload's data and every operation's module
//! source come from here, and from nothing but the seed.

use std::fmt::Write;

/// SplitMix64: small, fast and identical on every platform, so one seed
/// yields byte-identical sources everywhere.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one workload: the seed is mixed with a per-workload
    /// salt so workloads sharing a seed do not share a stream.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() >> 11) % n as u64) as usize
    }
}

/// A family forest over persons `0..n`, cut into families of `family`
/// consecutive persons: each family's first person is a root, every later
/// person's parent is uniform over the earlier persons of its family.
///
/// One uniform-attachment tree over all persons would put most of the
/// derived facts under its first few persons, so the workload's size would
/// swing by a fifth from seed to seed; equal-size families keep every seed
/// the same size of problem.
pub fn forest(n: usize, family: usize, rng: &mut Rng) -> Vec<Option<usize>> {
    (0..n)
        .map(|i| {
            let first = i - i % family;
            (i > first).then(|| first + rng.below(i - first))
        })
        .collect()
}

// ----- genealogy-fixpoint ----------------------------------------------------

/// Sizes of the `genealogy-fixpoint` workload.
#[derive(Debug, Clone, Copy)]
pub struct GenealogySize {
    /// Persons in the random forest.
    pub persons: usize,
    /// Persons per family of the forest.
    pub family: usize,
    /// Generations of the separate single lineage.
    pub lineage: usize,
}

/// The full-size fixpoint workload.
pub const GENEALOGY: GenealogySize = GenealogySize {
    persons: 1024,
    family: 64,
    lineage: 256,
};

/// The genealogy database: the forest's `p*` persons, the lineage's `l*`
/// persons, and the three derived predicates (linear `ancestor`,
/// non-linear same-generation `sg`, and `leaf` over negation).
#[derive(Debug, Clone)]
pub struct Genealogy {
    /// `(parent, child)` name pairs.
    pub edges: Vec<(String, String)>,
    /// Every person name.
    pub persons: Vec<String>,
}

/// Generate the genealogy data for a seed.
pub fn genealogy(size: GenealogySize, seed: u64) -> Genealogy {
    let mut rng = Rng::new(seed, 1);
    let parents = forest(size.persons, size.family, &mut rng);
    let mut persons: Vec<String> = (0..size.persons).map(|i| format!("p{i}")).collect();
    let mut edges: Vec<(String, String)> = parents
        .iter()
        .enumerate()
        .filter_map(|(c, p)| p.map(|p| (format!("p{p}"), format!("p{c}"))))
        .collect();
    persons.extend((0..=size.lineage).map(|g| format!("l{g}")));
    edges.extend((0..size.lineage).map(|g| (format!("l{g}"), format!("l{}", g + 1))));
    Genealogy { edges, persons }
}

/// The program source handed to `Database::from_source`.
pub fn genealogy_source(g: &Genealogy) -> String {
    let mut src = String::from(
        "associations
  person   = (name: string);
  parent   = (par: string, chil: string);
  ancestor = (anc: string, des: string);
  sg       = (a: string, b: string);
  leaf     = (name: string);
rules
  ancestor(anc: X, des: Y) <- parent(par: X, chil: Y).
  ancestor(anc: X, des: Z) <- parent(par: X, chil: Y), ancestor(anc: Y, des: Z).
  sg(a: X, b: Y) <- parent(par: P, chil: X), parent(par: P, chil: Y).
  sg(a: X, b: Y) <- parent(par: P, chil: X), sg(a: P, b: Q), parent(par: Q, chil: Y).
  leaf(name: X) <- person(name: X), not parent(par: X).
facts
",
    );
    for p in &g.persons {
        writeln!(src, "  person(name: \"{p}\").").expect("write to String");
    }
    for (p, c) in &g.edges {
        writeln!(src, "  parent(par: \"{p}\", chil: \"{c}\").").expect("write to String");
    }
    src
}

// ----- ancestry-session ------------------------------------------------------

/// Persons in the `ancestry-session` forest.
pub const SESSION_PERSONS: usize = 2048;

/// Persons per family of the session forest.
pub const SESSION_FAMILY: usize = 64;

/// The session's base data: a seeded forest (`parents[i]` is person `i`'s
/// parent) and the stream of seeded keys.
#[derive(Debug, Clone)]
pub struct Session {
    /// Parent of each person `p<i>`.
    pub parents: Vec<Option<usize>>,
    rng: Rng,
}

/// Generate the session forest for a seed; the returned value then yields
/// the per-cycle keys from the same stream.
pub fn session(persons: usize, seed: u64) -> Session {
    let mut rng = Rng::new(seed, 2);
    let parents = forest(persons, SESSION_FAMILY, &mut rng);
    Session { parents, rng }
}

impl Session {
    /// The base program: `parent` facts only.
    pub fn base_source(&self) -> String {
        let mut src = String::from(
            "associations
  parent = (par: string, chil: string);
facts
",
        );
        for (c, p) in self.parents.iter().enumerate() {
            if let Some(p) = p {
                writeln!(src, "  parent(par: \"p{p}\", chil: \"p{c}\").").expect("write to String");
            }
        }
        src
    }

    /// The key person `K` of the next cycle.
    pub fn next_key(&mut self) -> usize {
        self.rng.below(self.parents.len())
    }
}

/// The persistent view, installed in RADI mode.
pub const ANCESTOR_VIEW: &str = "associations
  ancestor = (anc: string, des: string);
rules
  ancestor(anc: X, des: Y) <- parent(par: X, chil: Y).
  ancestor(anc: X, des: Z) <- parent(par: X, chil: Y), ancestor(anc: Y, des: Z).
";

/// Descendants query for person `k`.
pub fn descendants_query(k: usize) -> String {
    format!("goal ancestor(anc: \"p{k}\", des: D)?")
}

/// Ancestors query for person `k`.
pub fn ancestors_query(k: usize) -> String {
    format!("goal ancestor(anc: A, des: \"p{k}\")?")
}

/// RIDV insert of a fresh parent `x<j>` above person `k`.
pub fn insert_parent(j: u64, k: usize) -> String {
    format!("rules parent(par: \"x{j}\", chil: \"p{k}\") <- .")
}

/// RIDV head-deletion of the edge [`insert_parent`] added.
pub fn delete_parent(j: u64, k: usize) -> String {
    format!("rules -parent(par: \"x{j}\", chil: \"p{k}\") <- .")
}

// ----- university-objects ----------------------------------------------------

/// Sizes of the `university-objects` workload.
#[derive(Debug, Clone, Copy)]
pub struct UniversitySize {
    /// Students loaded at set-up.
    pub students: usize,
    /// Schools (one professor each).
    pub schools: usize,
    /// Employees for the interesting-pair module.
    pub employees: usize,
    /// Departments.
    pub depts: usize,
    /// Percent of employees named like their department's manager.
    pub dup_pct: usize,
    /// Students created (and deleted again) per cycle.
    pub batch: usize,
}

/// The full-size objects workload.
pub const UNIVERSITY: UniversitySize = UniversitySize {
    students: 1024,
    schools: 16,
    employees: 1024,
    depts: 102,
    dup_pct: 25,
    batch: 32,
};

/// The university data: Example 3.1's classes and Example 3.4's employees.
#[derive(Debug, Clone)]
pub struct University {
    /// Sizes it was generated at.
    pub size: UniversitySize,
    /// School index of each set-up student.
    pub student_school: Vec<usize>,
    /// `(name, dept)` of each employee (managers included).
    pub emps: Vec<(String, usize)>,
    rng: Rng,
}

/// Generate the university data for a seed.
pub fn university(size: UniversitySize, seed: u64) -> University {
    let mut rng = Rng::new(seed, 3);
    let student_school = (0..size.students)
        .map(|_| rng.below(size.schools))
        .collect();
    let mut emps: Vec<(String, usize)> = (0..size.depts).map(|d| (format!("m{d}"), d)).collect();
    for i in 0..size.employees {
        let d = rng.below(size.depts);
        let name = if rng.below(100) < size.dup_pct {
            format!("m{d}")
        } else {
            format!("e{i}")
        };
        emps.push((name, d));
    }
    University {
        size,
        student_school,
        emps,
        rng,
    }
}

impl University {
    /// Schema, the stored `enrolled` rule, and the value-based facts.
    pub fn base_source(&self) -> String {
        let mut src = String::from(
            "classes
  person    = (name: string, address: string);
  school    = (sname: string, kind: string);
  student   = (person: person, studschool: school);
  professor = (person: person, course: string, profschool: school);
  student isa person;
  professor isa person;
associations
  emp      = (ename: string, works: string);
  dept     = (dname: string, depmgr: string);
  pair     = (employee: string, manager: string);
  enrolled = (stud: student, school: school);
classes
  ip = (employee: string, manager: string);
rules
  enrolled(stud: X, school: S) <- student(X, studschool: S).
facts
",
        );
        for d in 0..self.size.depts {
            writeln!(src, "  dept(dname: \"d{d}\", depmgr: \"m{d}\").").expect("write to String");
        }
        for (name, d) in &self.emps {
            writeln!(src, "  emp(ename: \"{name}\", works: \"d{d}\").").expect("write to String");
        }
        src
    }

    /// RIDV module loading the schools, their professors and the set-up
    /// students (objects need invented oids, so they cannot be facts).
    pub fn load_source(&self) -> String {
        let mut src = String::from("rules\n");
        for s in 0..self.size.schools {
            writeln!(
                src,
                "  school(self: S, sname: \"s{s}\", kind: \"k{}\") <- .",
                s % 3
            )
            .expect("write to String");
            writeln!(
                src,
                "  professor(self: P, name: \"prof{s}\", address: \"campus\", course: \"c{s}\", profschool: S) <- school(S, sname: \"s{s}\")."
            )
            .expect("write to String");
        }
        for (i, s) in self.student_school.iter().enumerate() {
            writeln!(
                src,
                "  student(self: X, name: \"st{i}\", address: \"home\", studschool: S) <- school(S, sname: \"s{s}\")."
            )
            .expect("write to String");
        }
        src
    }

    /// The schools of the next batch's students.
    pub fn next_batch(&mut self) -> Vec<usize> {
        (0..self.size.batch)
            .map(|_| self.rng.below(self.size.schools))
            .collect()
    }

    /// The school of the next class-join query.
    pub fn next_school(&mut self) -> usize {
        self.rng.below(self.size.schools)
    }
}

/// RIDV batch creating one student per entry of `schools`, tagged with the
/// cycle number `j` in their address.
pub fn create_batch(j: u64, schools: &[usize]) -> String {
    let mut src = String::from("rules\n");
    for (i, s) in schools.iter().enumerate() {
        writeln!(
            src,
            "  student(self: X, name: \"b{j}_{i}\", address: \"batch{j}\", studschool: S) <- school(S, sname: \"s{s}\")."
        )
        .expect("write to String");
    }
    src
}

/// RIDI class join: the students of school `s`, through the oid. The
/// cycle comment keeps the source distinct, so the parse cache never hides
/// parsing.
pub fn students_of(j: u64, s: usize) -> String {
    format!("// cycle {j}\ngoal student(X, name: N, studschool: S), school(S, sname: \"s{s}\")?")
}

/// RIDI application of Example 3.4's interesting-pair module: association
/// `pair` deduplicates, then one `ip` object is invented per pair.
pub fn interesting_pairs(j: u64) -> String {
    format!(
        "// cycle {j}
rules
  pair(employee: E, manager: M) <- emp(ename: E, works: D), dept(dname: D, depmgr: M), emp(ename: M).
  ip(self: X, C) <- pair(C).
goal ip(employee: E, manager: M)?"
    )
}

/// RIDV head-deletion of cycle `j`'s batch at `person`, which removes the
/// `student` objects with it.
pub fn delete_batch(j: u64) -> String {
    format!(
        "rules -person(self: P, address: \"batch{j}\") <- person(self: P, address: \"batch{j}\")."
    )
}
