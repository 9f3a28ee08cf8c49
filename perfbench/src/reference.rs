//! Reference answers the benchmark computes itself, in plain Rust over the
//! generator's own data — never through the path under test.

use std::collections::{BTreeMap, BTreeSet};

use crate::gen::{Genealogy, University};

/// Sizes of `ancestor`, `sg` and `leaf` over a parent relation that is a
/// forest (every person has at most one parent).
pub fn genealogy_sizes(g: &Genealogy) -> (usize, usize, usize) {
    let parent: BTreeMap<&str, &str> = g
        .edges
        .iter()
        .map(|(p, c)| (c.as_str(), p.as_str()))
        .collect();
    let has_child: BTreeSet<&str> = g.edges.iter().map(|(p, _)| p.as_str()).collect();
    // Every person's root and depth by walking its parent chain.
    let mut ancestor = 0;
    let mut generation: BTreeMap<(&str, usize), usize> = BTreeMap::new();
    for person in &g.persons {
        let mut root = person.as_str();
        let mut depth = 0;
        while let Some(p) = parent.get(root) {
            root = p;
            depth += 1;
        }
        ancestor += depth;
        if depth > 0 {
            *generation.entry((root, depth)).or_default() += 1;
        }
    }
    // In a forest, sg(X, Y) holds exactly when X and Y share their k-th
    // ancestor for some k >= 1, i.e. when they are at the same depth
    // below the same root.
    let sg = generation.values().map(|n| n * n).sum();
    let leaf = g
        .persons
        .iter()
        .filter(|p| !has_child.contains(p.as_str()))
        .count();
    (ancestor, sg, leaf)
}

/// Descendants of person `k` in a forest given as a parent vector, sorted.
pub fn descendants(parents: &[Option<usize>], k: usize) -> Vec<usize> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); parents.len()];
    for (c, p) in parents.iter().enumerate() {
        if let Some(p) = p {
            children[*p].push(c);
        }
    }
    let mut out = Vec::new();
    let mut queue = children[k].clone();
    while let Some(c) = queue.pop() {
        out.push(c);
        queue.extend(children[c].iter().copied());
    }
    out.sort_unstable();
    out
}

/// Ancestors of person `k`, sorted.
pub fn ancestors(parents: &[Option<usize>], k: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut cur = k;
    while let Some(p) = parents[cur] {
        out.push(p);
        cur = p;
    }
    out.sort_unstable();
    out
}

/// Number of interesting pairs of Example 3.4: distinct `(E, M)` with `E`
/// working in a department managed by `M`, where `M` is an employee name.
pub fn interesting_pairs(u: &University) -> usize {
    let names: BTreeSet<&str> = u.emps.iter().map(|(n, _)| n.as_str()).collect();
    let pairs: BTreeSet<(&str, String)> = u
        .emps
        .iter()
        .map(|(e, d)| (e.as_str(), format!("m{d}")))
        .filter(|(_, m)| names.contains(m.as_str()))
        .collect();
    pairs.len()
}

/// Set-up students per school.
pub fn students_per_school(u: &University) -> Vec<usize> {
    let mut n = vec![0; u.size.schools];
    for s in &u.student_school {
        n[*s] += 1;
    }
    n
}
