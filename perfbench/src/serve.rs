//! Open-loop load against an in-process `QueryServer` over loopback: the
//! serve probe of the traced run.
//!
//! Requests are `POST /ask` drawn Zipf(1) over the answerable questions of
//! the pool. Every response is checked against the answer
//! `Svqa::answer_guarded` gave in process: a different answer or any status
//! other than 200 counts as a failed request.

use crate::http;
use crate::stats::{derive, zipf_draws, SplitMix};
use crate::trace::Tracer;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use svqa::dataset::Mvqa;
use svqa::{QueryServer, ServeConfig, Svqa};

/// Server worker threads.
pub const WORKERS: usize = 2;
/// Concurrent client connections of the load generator.
pub const CONNECTIONS: usize = 2;
/// Zipf exponent of the request mix.
pub const ZIPF_S: f64 = 1.0;
/// Latency charged to a failed request: the server's request deadline, so a
/// failure counts as missing any latency limit.
pub const FAILED_LATENCY_MS: f64 = 10_000.0;
/// Length of the drawn request sequence (it wraps around past this).
const MAX_REQUESTS: usize = 10_000;

pub fn bind(system: Svqa) -> QueryServer {
    let config = ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    };
    QueryServer::bind(system, "127.0.0.1:0", config).expect("bind a loopback port")
}

/// The request mix and the answers each request must get.
pub struct Load {
    /// Request bodies, one per answerable pool question.
    pub bodies: Vec<String>,
    /// The in-process reference answer for each body, as JSON.
    pub expected: Vec<Value>,
    /// Index of each body's question in the pool.
    pub pool_index: Vec<usize>,
    /// Zipf draws: indices into `bodies`, in sending order.
    pub draws: Vec<usize>,
}

impl Load {
    /// References come from `Svqa::answer_guarded` without a cache; pool
    /// questions it cannot answer (the generated set's parse failures) are
    /// left out of the mix.
    pub fn new(system: &Svqa, mvqa: &Mvqa, seed: u64, t: &Tracer) -> Load {
        let _s = t.phase("check.reference");
        let mut load = Load {
            bodies: Vec::new(),
            expected: Vec::new(),
            pool_index: Vec::new(),
            draws: Vec::new(),
        };
        for (i, q) in mvqa.questions.iter().enumerate() {
            if let Ok(guarded) = system.answer_guarded(&q.question, None, None) {
                load.bodies
                    .push(serde_json::to_string(&json!({ "question": q.question })).expect("json"));
                load.expected.push(serde_json::to_value(&guarded.answer));
                load.pool_index.push(i);
            }
        }
        let mut rng = SplitMix::new(derive(seed, 0x21f));
        load.draws = zipf_draws(load.bodies.len(), ZIPF_S, MAX_REQUESTS, &mut rng);
        load
    }

    /// The question text of draw `i`.
    pub fn question<'m>(&self, mvqa: &'m Mvqa, i: usize) -> &'m str {
        &mvqa.questions[self.pool_index[self.draws[i % self.draws.len()]]].question
    }
}

/// What one load phase observed.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Per request: due time to the end of the response, in ms; failed
    /// requests are charged [`FAILED_LATENCY_MS`].
    pub latency_ms: Vec<f64>,
    /// How late each request was sent, in ms.
    pub late_ms: Vec<f64>,
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl LoopStats {
    fn absorb(&mut self, other: LoopStats) {
        self.latency_ms.extend(other.latency_ms);
        self.late_ms.extend(other.late_ms);
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        for p in other.problems {
            if self.problems.len() < 10 {
                self.problems.push(p);
            }
        }
    }
}

/// Send draw `i` and check the response.
fn exchange(addr: SocketAddr, load: &Load, i: usize, stats: &mut LoopStats) -> bool {
    let which = load.draws[i % load.draws.len()];
    stats.sent += 1;
    let problem = match http::post(addr, "/ask", &load.bodies[which]) {
        Err(e) => Some(format!("transport error: {e}")),
        Ok((200, body)) => match serde_json::from_str::<Value>(&body) {
            Ok(v) if v["answer"] == load.expected[which] => None,
            Ok(v) => Some(format!(
                "answer mismatch for {}: got {:?}, expected {:?}",
                load.bodies[which], v["answer"], load.expected[which]
            )),
            Err(e) => Some(format!("unparseable body: {e}")),
        },
        Ok((status, body)) => Some(format!("status {status}: {body}")),
    };
    match problem {
        None => {
            stats.ok += 1;
            true
        }
        Some(p) => {
            stats.failed += 1;
            if stats.problems.len() < 10 {
                stats.problems.push(p);
            }
            false
        }
    }
}

/// Open loop: request `k` is due at `start + k / rate`, whatever happened
/// to earlier ones. Latency runs from the due time, so a stall also counts
/// against the requests queued behind it.
pub fn open_loop(addr: SocketAddr, load: &Load, rate: f64, seconds: f64, t: &Tracer) -> LoopStats {
    let phase = t.phase("serve.open_loop");
    let parent = phase.id();
    let total = (rate * seconds).round() as usize;
    let next = AtomicUsize::new(0);
    let merged = Mutex::new(LoopStats::default());
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CONNECTIONS {
            s.spawn(|| {
                let mut stats = LoopStats::default();
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= total {
                        break;
                    }
                    let due = start + Duration::from_secs_f64(k as f64 / rate);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let ok = {
                        let _s = t.call_under("serve.request", parent);
                        exchange(addr, load, k, &mut stats)
                    };
                    let done = Instant::now();
                    stats
                        .late_ms
                        .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
                    stats.latency_ms.push(if ok {
                        done.saturating_duration_since(due).as_secs_f64() * 1e3
                    } else {
                        FAILED_LATENCY_MS
                    });
                }
                merged
                    .lock()
                    .expect("no load thread panicked")
                    .absorb(stats);
            });
        }
    });
    merged.into_inner().expect("no load thread panicked")
}

/// Server counters from `/metrics.json`.
pub fn counters(addr: SocketAddr) -> BTreeMap<String, u64> {
    let Ok((200, body)) = http::get(addr, "/metrics.json") else {
        return BTreeMap::new();
    };
    let v: Value = serde_json::from_str(&body).unwrap_or(Value::Null);
    v["counters"]
        .as_object()
        .map(|m| {
            m.iter()
                .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)))
                .collect()
        })
        .unwrap_or_default()
}

/// Counter `name` increase between two scrapes.
pub fn delta(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, name: &str) -> u64 {
    let read = |m: &BTreeMap<String, u64>| m.get(name).copied().unwrap_or(0);
    read(after).saturating_sub(read(before))
}

/// Ask the server to drain and exit.
pub fn shutdown(addr: SocketAddr) {
    let _ = http::post(addr, "/shutdown", "");
}
