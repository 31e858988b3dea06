//! Metrics, the manifest they are checked against, the run record, and the
//! result line.

use serde_json::{json, Map, Value};
use std::path::Path;

/// Metric values in insertion order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.entries.retain(|(n, _, _)| *n != name);
        self.entries.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|(n, _, _)| n == name).map(|e| e.1)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.entries.iter().map(|(n, v, u)| (n.as_str(), *v, *u))
    }

    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        for (name, value, unit) in self.iter() {
            m.insert(name.to_owned(), json!({ "value": value, "unit": unit }));
        }
        Value::Object(m)
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations whose outcome was wrong: an answer that differs from the
    /// reference, an unexpected error or HTTP status.
    pub failed: u64,
    /// Failed checks, one line each (empty when the run is correct).
    pub problems: Vec<String>,
    pub metrics: Metrics,
    /// Sample counts, ratio bases and other context for the run record.
    pub notes: Map,
}

impl Outcome {
    pub fn problem(&mut self, text: impl Into<String>) {
        let text = text.into();
        if self.problems.len() < 20 {
            self.problems.push(text);
        }
    }

    /// Count another phase's checked operations.
    pub fn absorb(&mut self, attempted: u64, failed: u64, problems: &[String]) {
        self.attempted += attempted;
        self.failed += failed;
        for p in problems {
            self.problem(p.clone());
        }
    }

    pub fn note(&mut self, key: &str, value: Value) {
        self.notes.insert(key.to_owned(), value);
    }
}

/// The metric and workload lists of `BENCHMARK.json`.
pub struct Manifest {
    workloads: Vec<String>,
    end_to_end: Vec<(String, String)>,
    per_layer: Vec<(String, String)>,
}

impl Manifest {
    pub fn load(path: &Path) -> Result<Manifest, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let v: Value =
            serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let list = |key: &str, field: &str| -> Result<Vec<(String, String)>, String> {
            v[key]
                .as_array()
                .ok_or(format!("{} has no '{key}' list", path.display()))?
                .iter()
                .map(|e| match (e["name"].as_str(), e[field].as_str()) {
                    (Some(n), Some(f)) => Ok((n.to_owned(), f.to_owned())),
                    _ => Err(format!("malformed '{key}' entry: {e:?}")),
                })
                .collect()
        };
        Ok(Manifest {
            workloads: list("workloads", "why")?
                .into_iter()
                .map(|(n, _)| n)
                .collect(),
            end_to_end: list("end_to_end", "unit")?,
            per_layer: list("per_layer", "unit")?,
        })
    }

    pub fn has_workload(&self, name: &str) -> bool {
        self.workloads.iter().any(|n| n == name)
    }

    /// The emitted metrics must be exactly the manifest's list for the
    /// mode, with the same units.
    pub fn check(&self, metrics: &Metrics, traced: bool) -> Result<(), String> {
        let expected = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut errors = Vec::new();
        for (name, unit) in expected {
            match metrics.iter().find(|(n, _, _)| n == name) {
                None => errors.push(format!("missing metric {name}")),
                Some((_, v, u)) if u != unit => errors.push(format!(
                    "{name}: unit {u}, manifest says {unit} (value {v})"
                )),
                Some((_, v, _)) if !v.is_finite() => errors.push(format!("{name} is {v}")),
                Some(_) => {}
            }
        }
        for (name, _, _) in metrics.iter() {
            if !expected.iter().any(|(n, _)| n == name) {
                errors.push(format!("metric {name} is not in the manifest"));
            }
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors.join("; "))
        }
    }
}

/// Peak resident set size (VmHWM) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).map(str::to_owned))
        })
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit of the checkout when it is a git work tree (`unknown`
/// otherwise), read from `.git` without running git.
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    if let Some(reference) = head.strip_prefix("ref: ") {
        if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
            return id.trim().to_owned();
        }
        let packed = std::fs::read_to_string(".git/packed-refs").unwrap_or_default();
        packed
            .lines()
            .find(|l| l.ends_with(reference))
            .and_then(|l| l.split_whitespace().next())
            .unwrap_or("unknown")
            .to_owned()
    } else if head.is_empty() {
        "unknown".to_owned()
    } else {
        head.to_owned()
    }
}

/// FNV-1a digest of the program's sources (the workspace crates, the
/// vendored crates and this benchmark), which identifies the code measured
/// even where the checkout carries no git metadata.
pub fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("rs" | "toml")
            ) {
                files.push(path);
            }
        }
    }
    let mut files = vec![Path::new("Cargo.toml").to_path_buf()];
    for dir in ["crates", "vendor", "perfbench/src"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let bytes = std::fs::read(path).unwrap_or_default();
        for &b in path.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// CPU model, OS and architecture.
pub fn machine() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown cpu".to_owned());
    format!(
        "{model}; {} {}",
        std::env::consts::OS,
        std::env::consts::ARCH
    )
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
