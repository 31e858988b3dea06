//! The live metrics routes of `svqa serve` over a real TCP connection: a
//! [`QueryServer`] answers `/ask` requests, then `/metrics` must serve the
//! registry in Prometheus text exposition format and `/profiles/recent`
//! the actual profiles those requests produced.
//!
//! Both tests read process-global counters, so they hold one lock for
//! their whole run: neither sees the other's traffic.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::thread::JoinHandle;
use svqa::telemetry::{stage, MetricsSnapshot};
use svqa::{QueryServer, ServeConfig, Svqa, SvqaConfig};
use svqa_dataset::Mvqa;

static SERIAL: Mutex<()> = Mutex::new(());

/// One HTTP/1.1 request; returns (head, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("header/body separator");
    (head.to_owned(), body.to_owned())
}

fn ask(addr: SocketAddr, question: &str) -> (String, String) {
    let body = serde_json::to_string(&serde_json::json!({ "question": question })).unwrap();
    http(addr, "POST", "/ask", &body)
}

fn start(system: Svqa) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = QueryServer::bind(system, "127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr");
    (addr, std::thread::spawn(move || server.serve()))
}

fn shutdown(addr: SocketAddr, handle: JoinHandle<std::io::Result<()>>) {
    let (head, _) = http(addr, "POST", "/shutdown", "");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    handle.join().expect("serve thread").expect("serve");
}

fn snapshot(addr: SocketAddr) -> MetricsSnapshot {
    let (head, body) = http(addr, "GET", "/metrics.json", "");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    serde_json::from_str(&body).expect("metrics JSON")
}

#[test]
fn live_endpoint_serves_real_pipeline_data() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mvqa = Mvqa::generate_small(60, 13);
    let system = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
    let (addr, handle) = start(system);
    let marker = "Does the dog appear in the car?";
    let (head, body) = ask(addr, marker);
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}\n{body}");
    for q in mvqa.questions.iter().take(4) {
        let _ = ask(addr, &q.question);
    }

    // /metrics: Prometheus 0.0.4 text with the pipeline's stage
    // histograms, counters, and cumulative buckets ending at +Inf.
    let (head, body) = http(addr, "GET", "/metrics", "");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");
    assert!(body.contains("# TYPE svqa_span_duration_seconds histogram"), "{body}");
    for stage in ["parse", "match"] {
        assert!(
            body.contains(&format!("svqa_span_duration_seconds_count{{stage=\"{stage}\"}}")),
            "missing {stage} histogram:\n{body}"
        );
    }
    assert!(body.contains("le=\"+Inf\""), "{body}");
    assert!(body.contains("svqa_questions_answered_total"), "{body}");
    assert!(body.contains("svqa_cache_hit_rate{pool=\"overall\"}"), "{body}");
    // Every non-comment line is `name{labels} value` with a float value —
    // the minimal parseability contract a scraper relies on.
    for line in body.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let value = line.rsplit(' ').next().unwrap_or("");
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "unparseable sample line: {line}"
        );
    }

    // /profiles/recent: the ring holds the profiles the /ask requests just
    // produced, including the marker question with its plan details.
    let (head, body) = http(addr, "GET", "/profiles/recent", "");
    assert!(head.contains("application/json"), "{head}");
    let v: serde_json::Value = serde_json::from_str(&body).expect("valid JSON");
    let profiles = v.as_array().expect("profiles array");
    assert!(!profiles.is_empty());
    let found = profiles
        .iter()
        .find(|p| p["question"].as_str() == Some(marker))
        .unwrap_or_else(|| panic!("marker profile missing from {body}"));
    assert!(found["total_ns"].as_u64().unwrap_or(0) > 0);
    assert!(found["quads"].as_array().is_some_and(|q| !q.is_empty()));
    let stages: Vec<&str> = found["stages"]
        .as_array()
        .expect("stages")
        .iter()
        .filter_map(|s| s["stage"].as_str())
        .collect();
    assert_eq!(stages, ["parse", "lint", "match"], "{found:?}");

    // The server keeps serving after the JSON routes.
    let (head, _) = http(addr, "GET", "/metrics.json", "");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    shutdown(addr, handle);
}

#[test]
fn ask_parses_and_lints_its_question_once() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mvqa = Mvqa::generate_small(60, 13);
    let system = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
    // A question the linter warns about (a category this world does not
    // know), answered all the same.
    let question = "How many unicorns are in the car?";
    let report = system.lint(question).expect("parses");
    assert!(!report.has_errors(), "{}", report.render());
    let warnings = report.count(svqa::qlint::Severity::Warning) as u64;
    assert!(warnings > 0, "expected a lint warning: {}", report.render());
    let (addr, handle) = start(system);

    let before = snapshot(addr);
    let (head, body) = ask(addr, question);
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}\n{body}");
    let after = snapshot(addr);

    let counter = |s: &MetricsSnapshot, name: &str| s.counters.get(name).copied().unwrap_or(0);
    let span_count = |s: &MetricsSnapshot, name: &str| s.spans.get(name).map_or(0, |h| h.count);
    let counter_delta = |name| counter(&after, name) - counter(&before, name);
    assert_eq!(counter_delta("questions_parsed"), 1);
    assert_eq!(counter_delta("lint_warnings"), warnings);
    assert_eq!(counter_delta("questions_answered"), 1);
    for stage in [stage::PARSE, stage::LINT, stage::MATCH] {
        assert_eq!(
            span_count(&after, stage) - span_count(&before, stage),
            1,
            "{stage} span count"
        );
    }
    shutdown(addr, handle);
}
