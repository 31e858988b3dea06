//! Golden answers for one fixed world: `Mvqa::generate_small(250, 11)`.
//!
//! `tests/golden/mvqa_small_250_11.json` records, for every generated
//! question, the result of `Svqa::answer`, `Svqa::answer_batch` and
//! `Svqa::answer_guarded(q, None, None)`; for three fixed questions it also
//! records the `svqa-cli explain --json` profile (every `*_ns` / `nanos`
//! field zeroed, since wall times vary run to run) and the images the
//! answer's explanation cites. Any refactor of the answer path must leave
//! all of it unchanged. The file is never regenerated to make this test
//! pass: a difference is a behaviour change.

use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::Command;
use svqa::{Svqa, SvqaConfig, SvqaError};
use svqa_dataset::Mvqa;

const IMAGES: usize = 250;
const SEED: u64 = 11;

/// One judgment, one counting and one reasoning question.
const EXPLAINED: [&str; 3] = [
    "Does the dog appear in the car?",
    "How many dogs are in the car?",
    "What kind of animal is on the grass?",
];

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/mvqa_small_250_11.json")
}

fn error_json(e: &SvqaError) -> Value {
    json!({ "error": e.to_string() })
}

fn answer_json(result: &Result<svqa::Answer, SvqaError>) -> Value {
    match result {
        Ok(a) => json!({ "answer": a }),
        Err(e) => error_json(e),
    }
}

/// A copy of `v` with every `*_ns` / `nanos` number zeroed, recursively.
fn zero_times(v: &Value) -> Value {
    match v {
        Value::Object(map) => Value::Object(
            map.iter()
                .map(|(key, child)| {
                    let timed = key.ends_with("_ns") || key == "nanos";
                    let child = if timed && matches!(child, Value::Number(_)) {
                        json!(0u64)
                    } else {
                        zero_times(child)
                    };
                    (key.clone(), child)
                })
                .collect(),
        ),
        Value::Array(items) => Value::Array(items.iter().map(zero_times).collect()),
        other => other.clone(),
    }
}

/// Save the world the way `svqa-cli build` does, so `explain` can open it.
fn write_world(system: &Svqa) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("svqa_golden_world_{}", std::process::id()));
    system.save(&dir).expect("save the world");
    dir
}

fn explain_json(world: &Path, question: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_svqa-cli"))
        .args(["explain", "--json", "--world", world.to_str().unwrap(), question])
        .output()
        .expect("svqa-cli runs");
    assert!(
        out.status.success(),
        "explain {question:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: Value = serde_json::from_str(&String::from_utf8(out.stdout).expect("utf-8"))
        .expect("explain --json prints JSON");
    zero_times(&v)
}

fn cited_images(system: &Svqa, question: &str) -> Value {
    let answered = system.answer_with(question, None, None);
    match &answered.result {
        Ok(_) => json!(system.explanation(&answered).unwrap_or_default().cited_images()),
        Err(e) => error_json(e),
    }
}

fn actual() -> Value {
    let mvqa = Mvqa::generate_small(IMAGES, SEED);
    let system = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
    let questions: Vec<&str> = mvqa.questions.iter().map(|q| q.question.as_str()).collect();
    let batch = system.answer_batch(&questions);
    let per_question: Vec<Value> = questions
        .iter()
        .zip(&batch.answers)
        .map(|(q, batched)| {
            let guarded = match system.answer_guarded(q, None, None) {
                Ok(g) => json!({ "answer": g.answer, "status": g.status.label() }),
                Err(e) => error_json(&e),
            };
            json!({
                "question": q,
                "answer": answer_json(&system.answer(q)),
                "answer_batch": answer_json(batched),
                "answer_guarded": guarded,
            })
        })
        .collect();
    let world = write_world(&system);
    let explained: Vec<Value> = EXPLAINED
        .iter()
        .map(|q| {
            json!({
                "question": q,
                "profile": explain_json(&world, q),
                "cited_images": cited_images(&system, q),
            })
        })
        .collect();
    let _ = std::fs::remove_dir_all(&world);
    json!({
        "world": json!({ "images": IMAGES, "seed": SEED }),
        "questions": per_question,
        "explained": explained,
    })
}

#[test]
fn answers_profiles_and_citations_match_the_golden_file() {
    let expected: Value = serde_json::from_str(
        &std::fs::read_to_string(golden_path()).expect("golden file present"),
    )
    .expect("golden file is JSON");
    let actual = actual();
    assert_eq!(actual["world"], expected["world"]);
    let (got, want) = (
        actual["questions"].as_array().expect("questions"),
        expected["questions"].as_array().expect("questions"),
    );
    assert_eq!(got.len(), want.len(), "question count changed");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g, w, "question result changed");
    }
    let (got, want) = (
        actual["explained"].as_array().expect("explained"),
        expected["explained"].as_array().expect("explained"),
    );
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g["cited_images"], w["cited_images"], "{:?}", w["question"]);
        assert_eq!(
            serde_json::to_string_pretty(&g["profile"]).unwrap(),
            serde_json::to_string_pretty(&w["profile"]).unwrap(),
            "explain profile changed for {:?}",
            w["question"]
        );
    }
    assert_eq!(actual, expected);
}
