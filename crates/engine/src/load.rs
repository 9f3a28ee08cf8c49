//! Loading extensional facts into an instance.
//!
//! Class facts invent a fresh oid per fact (oids are system-managed and
//! never appear in source text); association facts insert their tuple;
//! facts over data functions are rejected (functions are populated only by
//! `member` rule heads).

use logres_lang::GroundFact;
use logres_model::{Instance, OidGen, PredKind, Schema, Value};

use crate::error::EngineError;

/// Load ground facts. Returns the number of facts inserted.
pub fn load_facts(
    schema: &Schema,
    inst: &mut Instance,
    facts: &[GroundFact],
    gen: &mut OidGen,
) -> Result<usize, EngineError> {
    load_owned_facts(schema, inst, facts.iter().cloned(), gen)
}

/// [`load_facts`] for facts the caller no longer needs: their values move
/// into the instance instead of being copied.
pub fn load_owned_facts(
    schema: &Schema,
    inst: &mut Instance,
    facts: impl IntoIterator<Item = GroundFact>,
    gen: &mut OidGen,
) -> Result<usize, EngineError> {
    let mut n = 0;
    for f in facts {
        match schema.kind(f.pred) {
            Some(PredKind::Class) => {
                let oid = gen.fresh();
                inst.insert_object(schema, f.pred, oid, Value::tuple(f.args));
                n += 1;
            }
            Some(PredKind::Assoc) => {
                if inst.insert_assoc(f.pred, Value::tuple(f.args)) {
                    n += 1;
                }
            }
            _ => return Err(EngineError::UnknownPredicate(f.pred)),
        }
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use logres_lang::parse_program;
    use logres_model::Sym;

    #[test]
    fn class_facts_invent_oids_assoc_facts_insert_tuples() {
        let p = parse_program(
            r#"
            classes
              person = (name: string);
            associations
              likes = (a: string, b: string);
            facts
              person(name: "sara").
              person(name: "luca").
              likes(a: "sara", b: "luca").
              likes(a: "sara", b: "luca").
        "#,
        )
        .unwrap();
        let mut inst = Instance::new();
        let mut gen = OidGen::new();
        let n = load_facts(&p.schema, &mut inst, &p.facts, &mut gen).unwrap();
        // The duplicate association fact collapses.
        assert_eq!(n, 3);
        assert_eq!(inst.class_len(Sym::new("person")), 2);
        assert_eq!(inst.assoc_len(Sym::new("likes")), 1);
        inst.validate(&p.schema).expect("loaded instance is legal");
    }

    #[test]
    fn function_facts_are_rejected() {
        let p = parse_program(
            r#"
            classes
              person = (name: string);
            functions
              f: -> {person};
        "#,
        )
        .unwrap();
        let fact = GroundFact {
            pred: Sym::new("f"),
            args: vec![],
            span: Default::default(),
        };
        let mut inst = Instance::new();
        let mut gen = OidGen::new();
        assert!(matches!(
            load_facts(&p.schema, &mut inst, &[fact], &mut gen),
            Err(EngineError::UnknownPredicate(_))
        ));
    }
}
