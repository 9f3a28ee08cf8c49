//! Evaluation errors of the ALGRES algebra.

use std::fmt;

use logres_model::Sym;

/// Runtime errors raised while evaluating an algebra expression.
#[derive(Debug, Clone, PartialEq, Eq)]
// Field names are self-documenting; variant docs carry the semantics.
#[allow(missing_docs)]
pub enum AlgError {
    /// A referenced relation is not bound in the environment.
    UnknownRelation(Sym),
    /// A referenced column does not exist in the input relation.
    UnknownColumn { rel: String, col: Sym },
    /// Binary operators require compatible column sets.
    SchemaMismatch { left: Vec<Sym>, right: Vec<Sym> },
    /// Product requires disjoint column sets.
    OverlappingColumns(Vec<Sym>),
    /// A scalar expression was applied to a value of the wrong shape.
    BadValue(String),
    /// Unnest on a column that does not hold a collection.
    NotACollection(Sym),
}

impl fmt::Display for AlgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgError::UnknownRelation(r) => write!(f, "unknown relation `{r}`"),
            AlgError::UnknownColumn { rel, col } => {
                write!(f, "relation {rel} has no column `{col}`")
            }
            AlgError::SchemaMismatch { left, right } => {
                write!(f, "schema mismatch: {left:?} vs {right:?}")
            }
            AlgError::OverlappingColumns(cols) => {
                write!(f, "product operands share columns {cols:?}")
            }
            AlgError::BadValue(msg) => write!(f, "bad value: {msg}"),
            AlgError::NotACollection(c) => write!(f, "column `{c}` does not hold a collection"),
        }
    }
}

impl std::error::Error for AlgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = AlgError::UnknownColumn {
            rel: "game".to_owned(),
            col: Sym::new("h_team"),
        };
        assert!(e.to_string().contains("h_team"));
    }
}
