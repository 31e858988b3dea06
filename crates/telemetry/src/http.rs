//! The observability routes, mounted by `svqa serve` next to its query
//! routes (see [`router`](crate::router) for the HTTP layer):
//!
//! * `GET /metrics` — the live [`Recorder`] snapshot in Prometheus text
//!   exposition format;
//! * `GET /metrics.json` — the same snapshot as JSON;
//! * `GET /profiles/recent` — the [`ProfileRing`] contents as a JSON
//!   array (newest last).

use crate::exposition::prometheus_text;
use crate::recent::ProfileRing;
use crate::recorder::Recorder;
use crate::router::{Response, Router};

/// Add the observability routes over `recorder` and `profiles` to
/// `router`.
pub fn metrics_routes<'h>(
    router: Router<'h>,
    recorder: &Recorder,
    profiles: &ProfileRing,
) -> Router<'h> {
    let text_recorder = recorder.clone();
    let json_recorder = recorder.clone();
    let profiles = profiles.clone();
    router
        .get("/metrics", move |_| {
            // The version parameter is part of the exposition format
            // contract; Prometheus keys parsing off it.
            Response::text(200, prometheus_text(&text_recorder.snapshot()))
                .with_content_type("text/plain; version=0.0.4; charset=utf-8")
        })
        .get("/metrics.json", move |_| {
            Response::json(200, json_recorder.snapshot().to_json_pretty())
        })
        .get("/profiles/recent", move |_| {
            Response::json(200, profiles.to_json())
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{HttpServer, Request};
    use serde_json::json;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    fn sample_router() -> Router<'static> {
        let recorder = Recorder::new();
        recorder.incr_counter_by("questions_answered", 3);
        recorder.record_span("parse", Duration::from_micros(50));
        let profiles = ProfileRing::new(4);
        profiles.push(json!({"question": "How many dogs?"}));
        metrics_routes(Router::new(), &recorder, &profiles)
    }

    fn dispatch(method: &str, path: &str) -> Response {
        sample_router().dispatch(&Request {
            method: method.to_owned(),
            path: path.to_owned(),
            headers: Vec::new(),
            body: Vec::new(),
        })
    }

    fn body(response: &Response) -> String {
        String::from_utf8(response.body.clone()).expect("utf-8 body")
    }

    #[test]
    fn metrics_route_serves_prometheus_text() {
        let response = dispatch("GET", "/metrics");
        assert_eq!(response.status, 200);
        assert!(response.content_type.contains("text/plain; version=0.0.4"));
        let text = body(&response);
        assert!(text.contains("svqa_questions_answered_total 3"), "{text}");
        assert!(text.contains("svqa_span_duration_seconds_count"), "{text}");
    }

    #[test]
    fn json_and_profile_routes_serve_json() {
        let response = dispatch("GET", "/metrics.json");
        assert!(response.content_type.contains("application/json"));
        let snap: crate::MetricsSnapshot = serde_json::from_str(&body(&response)).unwrap();
        assert_eq!(snap.counters["questions_answered"], 3);

        let response = dispatch("GET", "/profiles/recent");
        assert!(response.content_type.contains("application/json"));
        let v: serde_json::Value = serde_json::from_str(&body(&response)).unwrap();
        match v {
            serde_json::Value::Array(a) => {
                assert_eq!(a.len(), 1);
                assert_eq!(a[0]["question"], json!("How many dogs?"));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn unknown_route_is_404_and_server_survives() {
        let router = sample_router();
        let get = |path: &str| {
            router.dispatch(&Request {
                method: "GET".to_owned(),
                path: path.to_owned(),
                headers: Vec::new(),
                body: Vec::new(),
            })
        };
        assert_eq!(get("/nope").status, 404);
        // The same router keeps answering after an error path.
        assert_eq!(get("/metrics").status, 200);
    }

    #[test]
    fn post_to_metrics_is_405() {
        let response = dispatch("POST", "/metrics");
        assert_eq!(response.status, 405);
        assert!(response
            .extra_headers
            .iter()
            .any(|(n, v)| n == "Allow" && v == "GET"));
    }

    #[test]
    fn silent_scraper_cannot_wedge_the_endpoint() {
        let mut server = HttpServer::bind("127.0.0.1:0").expect("bind");
        server.set_io_timeout(Some(Duration::from_millis(100)));
        let addr = server.local_addr().expect("local addr");
        let serving = std::thread::spawn(move || {
            // A serial loop: the silent connection must time out so the
            // real scrape behind it is served.
            let router = sample_router();
            for _ in 0..2 {
                if let Ok(stream) = server.accept() {
                    let _ = HttpServer::handle_connection(stream, &router);
                }
            }
        });

        // A client that connects and never sends a byte.
        let _silent = TcpStream::connect(addr).unwrap();
        std::thread::sleep(Duration::from_millis(10));
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        serving.join().unwrap();
    }
}
