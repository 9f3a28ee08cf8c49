//! The generators are deterministic, and on a tiny size of every workload
//! the benchmark's references and its replay agree with `Database`.

use logres_perfbench::gen::{GenealogySize, UniversitySize};
use logres_perfbench::replay::Replay;
use logres_perfbench::{workload, Fixpoint, Objects, SessionLoad, Workload, SEMANTICS, WORKLOADS};

#[test]
fn one_seed_yields_byte_identical_sources() {
    for name in WORKLOADS {
        let a = workload(name, 7).expect("known workload").sources();
        let b = workload(name, 7).expect("known workload").sources();
        let c = workload(name, 8).expect("known workload").sources();
        assert_eq!(a, b, "{name}: same seed, different sources");
        assert_ne!(a, c, "{name}: the seed does not reach the sources");
    }
}

fn tiny() -> Vec<Box<dyn Workload>> {
    let genealogy = GenealogySize {
        persons: 48,
        family: 16,
        lineage: 6,
    };
    let university = UniversitySize {
        students: 24,
        schools: 3,
        employees: 30,
        depts: 4,
        dup_pct: 25,
        batch: 4,
    };
    vec![
        Box::new(Fixpoint::new(genealogy, 3)),
        Box::new(SessionLoad::new(64, 3)),
        Box::new(Objects::new(university, 3)),
    ]
}

/// Every operation of a few cycles: `Database`'s result matches the
/// reference, the replay's result matches `Database`'s, and the final
/// checks pass.
#[test]
fn references_and_replay_agree_with_database_on_tiny_workloads() {
    for mut wl in tiny() {
        let mut db = wl.setup().expect("set-up succeeds");
        let mut replay = Replay::new(db.state().clone(), SEMANTICS);
        if wl.maintained() {
            replay.build_view().expect("view builds");
        }
        for j in 1..=4 {
            for (op, expect) in wl.cycle(j) {
                let out = op.run(&mut db).expect("operation succeeds");
                expect.check(&db, &out).expect("matches the reference");
                let replayed = op.replay(&mut replay).expect("replay succeeds");
                assert_eq!(replayed, out, "replay differs on {op:?}");
                expect
                    .check_view(&replay)
                    .expect("maintained view matches the reference");
            }
        }
        assert_eq!(replay.state().edb, *db.edb());
        wl.finish(&db, Some(&replay)).expect("final check passes");
    }
}
