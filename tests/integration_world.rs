//! The world directory: `Svqa::open(Svqa::save(build))` is the built
//! system — same answers on every path, same build statistics, and it keeps
//! ingesting like the original — and a damaged directory is an error, not
//! a panic.

use std::path::{Path, PathBuf};
use svqa::{Svqa, SvqaConfig};
use svqa_dataset::Mvqa;

/// A fresh, empty directory for one test.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("svqa_world_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn save_and_open(system: &Svqa, dir: &Path) -> Svqa {
    system.save(dir).expect("save the world");
    Svqa::open(dir, SvqaConfig::default()).expect("open the saved world")
}

#[test]
fn an_opened_world_answers_like_the_built_one() {
    let mvqa = Mvqa::generate_small(250, 11);
    let built = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
    let dir = scratch_dir("roundtrip");
    let opened = save_and_open(&built, &dir);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(opened.build_stats(), built.build_stats());
    let questions: Vec<&str> = mvqa.questions.iter().map(|q| q.question.as_str()).collect();
    assert!(!questions.is_empty());
    for q in &questions {
        assert_eq!(opened.answer(q), built.answer(q), "answer: {q}");
        assert_eq!(
            opened.answer_guarded(q, None, None),
            built.answer_guarded(q, None, None),
            "answer_guarded: {q}"
        );
    }
    let (a, b) = (
        opened.answer_batch(&questions),
        built.answer_batch(&questions),
    );
    assert_eq!(a.answers, b.answers);
    assert_eq!(a.status, b.status);
}

#[test]
fn an_opened_world_keeps_ingesting_like_the_built_one() {
    let mvqa = Mvqa::generate_small(200, 11);
    let (head, tail) = mvqa.images.split_at(150);
    let mut built = Svqa::build(head, &mvqa.kg, SvqaConfig::default());
    let dir = scratch_dir("ingest");
    let mut opened = save_and_open(&built, &dir);
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(opened.add_images(tail), built.add_images(tail));
    let (a, b) = (opened.merged_graph(), built.merged_graph());
    assert_eq!(a.vertex_count(), b.vertex_count());
    assert_eq!(a.edge_count(), b.edge_count());
    assert_eq!(opened.build_stats(), built.build_stats());
    for q in &mvqa.questions {
        assert_eq!(
            opened.answer(&q.question),
            built.answer(&q.question),
            "{}",
            q.question
        );
    }
}

#[test]
fn a_damaged_world_is_an_error() {
    let missing = scratch_dir("missing");
    assert!(Svqa::open(&missing, SvqaConfig::default()).is_err());

    let mvqa = Mvqa::generate_small(40, 5);
    let system = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
    let dir = scratch_dir("damaged");
    system.save(&dir).expect("save the world");

    let snapshot = std::fs::read(dir.join("merged.svqg")).expect("snapshot written");
    std::fs::write(dir.join("merged.svqg"), &snapshot[..snapshot.len() / 2]).unwrap();
    let err = Svqa::open(&dir, SvqaConfig::default())
        .err()
        .expect("truncated snapshot");
    assert!(err.to_string().contains("merged.svqg"), "{err}");

    // A sound snapshot of some other graph disagrees with `system.json`.
    let other = svqa::graph::binio::to_bytes(&svqa::graph::Graph::new());
    std::fs::write(dir.join("merged.svqg"), other).unwrap();
    let err = Svqa::open(&dir, SvqaConfig::default())
        .err()
        .expect("mismatched snapshot");
    assert!(err.to_string().contains("system.json records"), "{err}");

    std::fs::write(dir.join("merged.svqg"), &snapshot).unwrap();
    assert!(Svqa::open(&dir, SvqaConfig::default()).is_ok());
    std::fs::remove_file(dir.join("system.json")).unwrap();
    let err = Svqa::open(&dir, SvqaConfig::default())
        .err()
        .expect("no system.json");
    assert!(err.to_string().contains("system.json"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
