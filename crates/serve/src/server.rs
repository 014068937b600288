//! The daemon: accept loop, per-connection threads, and the router
//! mapping endpoints onto the warm engine, the job queue, and the run
//! store.

use crate::api::{SweepRequest, WhatIfRequest};
use crate::http::{response_bytes, HttpError, Limits, RequestParser};
use crate::jobs::{lock, JobQueue};
use daydream_shard::RunStore;
use daydream_sweep::SweepEngine;
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// How the daemon runs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 picks a free port).
    pub addr: String,
    /// Engine worker threads for sweep evaluation.
    pub threads: usize,
    /// Run-store root for job persistence and history queries; `None`
    /// disables both (history endpoints answer 503).
    pub store_root: Option<PathBuf>,
    /// Stop after serving this many requests (0 = unlimited).
    pub max_requests: u64,
    /// Stop after this many seconds (0 = run until shutdown).
    pub timeout_secs: u64,
    /// Parser buffering limits.
    pub limits: Limits,
    /// Most sweep jobs queued or running before `/sweep` sheds load
    /// with `429 Too Many Requests` + `Retry-After` (0 = unbounded).
    pub max_queued_jobs: usize,
    /// Per-request deadline for `/whatif` in milliseconds; an
    /// evaluation that exceeds it is answered `504 Gateway Timeout`
    /// (0 = no deadline).
    pub whatif_deadline_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: 2,
            store_root: None,
            max_requests: 0,
            timeout_secs: 0,
            limits: Limits::default(),
            max_queued_jobs: 8,
            whatif_deadline_ms: 0,
        }
    }
}

/// What a finished daemon reports back to its caller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeSummary {
    /// Requests answered (including error responses).
    pub requests: u64,
    /// Sweep jobs submitted over the lifetime.
    pub jobs_submitted: u64,
    /// What stopped the daemon: `shutdown` | `max-requests` | `timeout`.
    pub stop_reason: String,
}

struct AppState {
    engine: Arc<SweepEngine>,
    queue: JobQueue,
    store: Option<RunStore>,
    started: Instant,
    requests: AtomicU64,
    jobs_submitted: AtomicU64,
    shutdown: AtomicBool,
    limits: Limits,
    max_queued_jobs: usize,
    whatif_deadline_ms: u64,
}

/// A bound-but-not-yet-serving daemon. Binding and serving are separate
/// so callers can learn the OS-assigned port before the accept loop
/// starts.
pub struct Server {
    listener: TcpListener,
    state: Arc<AppState>,
    config: ServeConfig,
}

impl Server {
    /// Binds the listener and warms up the state (engine, queue, store).
    pub fn bind(config: ServeConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("cannot set nonblocking: {e}"))?;
        let store = match &config.store_root {
            Some(root) => Some(RunStore::open(root).map_err(|e| e.to_string())?),
            None => None,
        };
        let engine = Arc::new(SweepEngine::new(config.threads));
        let queue = JobQueue::new(Arc::clone(&engine), store.clone());
        let state = Arc::new(AppState {
            engine,
            queue,
            store,
            started: Instant::now(),
            requests: AtomicU64::new(0),
            jobs_submitted: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            limits: config.limits,
            max_queued_jobs: config.max_queued_jobs,
            whatif_deadline_ms: config.whatif_deadline_ms,
        });
        Ok(Server {
            listener,
            state,
            config,
        })
    }

    /// The bound socket address (resolves port 0).
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, String> {
        self.listener.local_addr().map_err(|e| e.to_string())
    }

    /// Runs the accept loop until shutdown, the request budget, or the
    /// lifetime deadline. Joins all connection threads before returning.
    pub fn run(&self) -> Result<ServeSummary, String> {
        let deadline = (self.config.timeout_secs > 0)
            .then(|| self.state.started + Duration::from_secs(self.config.timeout_secs));
        let handles: Mutex<Vec<std::thread::JoinHandle<()>>> = Mutex::new(Vec::new());
        let stop_reason;
        loop {
            if self.state.shutdown.load(Ordering::SeqCst) {
                stop_reason = "shutdown";
                break;
            }
            if self.config.max_requests > 0
                && self.state.requests.load(Ordering::SeqCst) >= self.config.max_requests
            {
                stop_reason = "max-requests";
                break;
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                stop_reason = "timeout";
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let state = Arc::clone(&self.state);
                    let handle = std::thread::Builder::new()
                        .name("daydream-serve-conn".into())
                        .spawn(move || serve_connection(stream, &state))
                        .map_err(|e| format!("cannot spawn connection thread: {e}"))?;
                    lock(&handles).push(handle);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // The poll interval is the floor on cold-connection
                    // latency, so keep it tight.
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(format!("accept failed: {e}")),
            }
            // Reap finished connections so long-lived daemons don't
            // accumulate handles.
            let mut guard = lock(&handles);
            let mut keep = Vec::new();
            for h in guard.drain(..) {
                if h.is_finished() {
                    h.join().ok();
                } else {
                    keep.push(h);
                }
            }
            *guard = keep;
        }
        for h in handles.into_inner().unwrap_or_else(PoisonError::into_inner) {
            h.join().ok();
        }
        self.state.queue.shutdown();
        Ok(ServeSummary {
            requests: self.state.requests.load(Ordering::SeqCst),
            jobs_submitted: self.state.jobs_submitted.load(Ordering::SeqCst),
            stop_reason: stop_reason.into(),
        })
    }
}

/// Reads requests off one connection until close, error, or shutdown.
/// Every protocol error is answered with its typed status; handler
/// panics become 500s; the daemon itself never dies from a bad client.
fn serve_connection(mut stream: TcpStream, state: &AppState) {
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok();
    let mut parser = RequestParser::new(state.limits);
    let mut chunk = [0u8; 8 * 1024];
    loop {
        if state.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Drain every request already buffered (pipelining) before the
        // next read.
        loop {
            match parser.next_request() {
                Ok(Some(req)) => {
                    state.requests.fetch_add(1, Ordering::SeqCst);
                    let close = req.wants_close();
                    let (status, body) = catch_unwind(AssertUnwindSafe(|| route(state, &req)))
                        .unwrap_or_else(|_| (500, error_body("internal error: handler panicked")));
                    // Shed responses carry a retry hint so well-behaved
                    // clients back off instead of hammering.
                    let retry_hint = [("Retry-After", "2".to_string())];
                    let extra: &[(&str, String)] = if status == 429 { &retry_hint } else { &[] };
                    let wire = crate::http::response_bytes_with(
                        status,
                        "application/json",
                        body.as_bytes(),
                        close,
                        extra,
                    );
                    if stream.write_all(&wire).is_err() {
                        return;
                    }
                    if close {
                        return;
                    }
                }
                Ok(None) => break,
                Err(HttpError { status, message }) => {
                    state.requests.fetch_add(1, Ordering::SeqCst);
                    let wire = response_bytes(
                        status,
                        "application/json",
                        error_body(&message).as_bytes(),
                        true,
                    );
                    stream.write_all(&wire).ok();
                    return;
                }
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => parser.feed(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle keep-alive connections just close; half-sent
                // requests get told why.
                if parser.has_buffered() {
                    let wire = response_bytes(
                        408,
                        "application/json",
                        error_body("timed out waiting for the rest of the request").as_bytes(),
                        true,
                    );
                    stream.write_all(&wire).ok();
                }
                return;
            }
            Err(_) => return,
        }
    }
}

/// `{"error": "..."}` with proper JSON escaping.
fn error_body(message: &str) -> String {
    let quoted =
        serde_json::to_string(&message.to_string()).unwrap_or_else(|_| "\"internal error\"".into());
    format!("{{\"error\":{quoted}}}")
}

/// Maps one request to `(status, json body)`.
fn route(state: &AppState, req: &crate::http::Request) -> (u16, String) {
    let path = req.path.as_str();
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => handle_healthz(state),
        ("GET", "/metrics") => handle_metrics(state),
        ("GET", "/models") => handle_models(state),
        ("POST", "/whatif") => handle_whatif(state, &req.body),
        ("POST", "/sweep") => handle_sweep(state, &req.body),
        ("GET", "/history/best") => handle_history_best(state, req),
        ("POST", "/shutdown") => {
            state.shutdown.store(true, Ordering::SeqCst);
            (200, "{\"status\":\"shutting down\"}".into())
        }
        ("GET", _) if path.starts_with("/jobs/") => handle_jobs(state, req),
        // Known paths with the wrong verb are 405, anything else 404.
        (
            _,
            "/healthz" | "/metrics" | "/models" | "/whatif" | "/sweep" | "/history/best"
            | "/shutdown",
        ) => (
            405,
            error_body(&format!("method {} not allowed", req.method)),
        ),
        (_, _) if path.starts_with("/jobs/") => (
            405,
            error_body(&format!("method {} not allowed", req.method)),
        ),
        _ => (404, error_body(&format!("no such endpoint '{path}'"))),
    }
}

fn handle_healthz(state: &AppState) -> (u16, String) {
    (
        200,
        format!(
            "{{\"status\":\"ok\",\"uptime_ms\":{}}}",
            state.started.elapsed().as_millis()
        ),
    )
}

/// Engine-lifetime counters: cumulative simulation-path stats, cache
/// occupancy, warm-profile registry size, and job/request totals. The
/// sim-path counters are what lets a client assert a warm what-if was
/// answered incrementally.
fn handle_metrics(state: &AppState) -> (u16, String) {
    let totals = state.engine.total_stats();
    let cache = state.engine.cache();
    let patch_cache = state.engine.patch_cache();
    let profiles = state.engine.resident_profiles();
    let (queued, running, done, failed) = state.queue.counts();
    let recovery = state.queue.recovery();
    let shard_json = |hits: Vec<usize>, contended: Vec<usize>| {
        format!(
            "\"shard_hits\":{:?},\"shard_contended\":{:?}",
            hits, contended
        )
    };
    let body = format!(
        concat!(
            "{{\"requests\":{},",
            "\"uptime_ms\":{},",
            "\"engine\":{{",
            "\"profiles_built\":{},\"profiles_resident\":{},",
            "\"incremental_sims\":{},\"full_sims\":{},\"estimate_sims\":{},",
            "\"patch_hits\":{},\"tasks_redispatched\":{},",
            "\"fidelity_checks\":{},\"fidelity_failures\":{},\"fidelity_worst_rel_err\":{}}},",
            "\"scratch\":{{\"reuses\":{},\"allocs\":{}}},",
            "\"cache\":{{\"entries\":{},\"hits\":{},\"misses\":{},{}}},",
            "\"patch_cache\":{{\"entries\":{},\"hits\":{},{}}},",
            "\"recovery\":{{\"retries\":{},\"reclaims\":{},\"faults_injected\":{},",
            "\"jobs_recovered\":{}}},",
            "\"jobs\":{{\"submitted\":{},\"queued\":{},\"running\":{},\"done\":{},",
            "\"failed\":{},\"recovered\":{}}}}}"
        ),
        state.requests.load(Ordering::SeqCst),
        state.started.elapsed().as_millis(),
        totals.profiles_built,
        profiles.len(),
        totals.incremental_sims,
        totals.full_sims,
        totals.estimate_sims,
        totals.patch_hits,
        totals.tasks_redispatched,
        totals.fidelity_checks,
        totals.fidelity_failures,
        totals.fidelity_worst_rel_err,
        totals.scratch_reuses,
        totals.scratch_allocs,
        cache.len(),
        cache.hits(),
        cache.misses(),
        shard_json(cache.shard_hits(), cache.shard_contention()),
        patch_cache.len(),
        patch_cache.hits(),
        shard_json(patch_cache.shard_hits(), patch_cache.shard_contention()),
        recovery.retries,
        recovery.reclaims,
        recovery.faults_injected,
        recovery.jobs_recovered,
        state.jobs_submitted.load(Ordering::SeqCst),
        queued,
        running,
        done,
        failed,
        recovery.jobs_recovered,
    );
    (200, body)
}

/// The model zoo plus the warm profile registry: what the daemon *can*
/// simulate, and which (model, batch) bases it already holds compiled.
fn handle_models(state: &AppState) -> (u16, String) {
    let zoo: Vec<String> = daydream_models::zoo::all_models()
        .iter()
        .map(|m| {
            format!(
                "{{\"name\":{},\"default_batch\":{},\"params\":{}}}",
                serde_json::to_string(&m.name).unwrap_or_default(),
                m.default_batch,
                m.param_count()
            )
        })
        .collect();
    let warm =
        serde_json::to_string(&state.engine.resident_profiles()).unwrap_or_else(|_| "[]".into());
    (
        200,
        format!(
            "{{\"models\":[{}],\"warm_profiles\":{warm}}}",
            zoo.join(",")
        ),
    )
}

fn parse_body<T: serde::Deserialize>(body: &[u8]) -> Result<T, (u16, String)> {
    let text = std::str::from_utf8(body)
        .map_err(|_| (400, error_body("request body is not valid UTF-8")))?;
    if text.trim().is_empty() {
        return Err((400, error_body("request body must be a JSON object")));
    }
    serde_json::from_str(text).map_err(|e| (400, error_body(&format!("invalid JSON body: {e}"))))
}

/// Synchronous single-scenario evaluation against the warm base. Warm
/// path: microseconds via `simulate_warm` over the resident base and
/// schedule; cold path: one profile build first.
fn handle_whatif(state: &AppState, body: &[u8]) -> (u16, String) {
    let req: WhatIfRequest = match parse_body(body) {
        Ok(r) => r,
        Err(e) => return e,
    };
    let scenario = match req.scenario() {
        Ok(s) => s,
        Err(msg) => return (400, error_body(&msg)),
    };
    let result = if state.whatif_deadline_ms == 0 {
        state.engine.run_scenarios(vec![scenario])
    } else {
        // Evaluate on a helper thread so the connection can answer 504
        // at the deadline. A timed-out evaluation keeps running (and
        // warms the engine), but this request stops waiting for it.
        let engine = Arc::clone(&state.engine);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::Builder::new()
            .name("daydream-serve-whatif".into())
            .spawn(move || {
                tx.send(engine.run_scenarios(vec![scenario])).ok();
            })
            .ok();
        match rx.recv_timeout(Duration::from_millis(state.whatif_deadline_ms)) {
            Ok(result) => result,
            Err(_) => {
                return (
                    504,
                    error_body(&format!(
                        "what-if exceeded the {} ms deadline; retry or raise \
                         --whatif-deadline-ms",
                        state.whatif_deadline_ms
                    )),
                )
            }
        }
    };
    match result {
        Ok(outcomes) => match serde_json::to_string(&outcomes[0]) {
            Ok(json) => (200, json),
            Err(e) => (500, error_body(&format!("serialize outcome: {e}"))),
        },
        Err(msg) => (500, error_body(&msg)),
    }
}

/// Grid submission: expand (400 on any invalid axis value), enqueue,
/// answer 202 with the job id immediately.
fn handle_sweep(state: &AppState, body: &[u8]) -> (u16, String) {
    let req: SweepRequest = match parse_body(body) {
        Ok(r) => r,
        Err(e) => return e,
    };
    let grid = match req.grid() {
        Ok(g) => g,
        Err(msg) => return (400, error_body(&msg)),
    };
    let scenarios = match grid.expand() {
        Ok(s) => s,
        Err(msg) => return (400, error_body(&msg)),
    };
    if scenarios.is_empty() {
        return (400, error_body("grid expands to zero scenarios"));
    }
    // Graceful degradation: a bounded job backlog sheds new work with a
    // retry hint instead of queueing unboundedly. Done/failed jobs don't
    // count — only work still ahead of this submission.
    if state.max_queued_jobs > 0 {
        let (queued, running, _, _) = state.queue.counts();
        if queued + running >= state.max_queued_jobs {
            return (
                429,
                error_body(&format!(
                    "job queue is full ({} jobs in flight, limit {}); retry later",
                    queued + running,
                    state.max_queued_jobs
                )),
            );
        }
    }
    let count = scenarios.len();
    let id = state.queue.submit(scenarios);
    state.jobs_submitted.fetch_add(1, Ordering::SeqCst);
    (202, format!("{{\"job_id\":{id},\"scenarios\":{count}}}"))
}

/// `/jobs/{id}` (status) and `/jobs/{id}/results[?top=N]` (ranked
/// report; the full report is byte-identical to the offline sweep of
/// the same grid once the job is done).
fn handle_jobs(state: &AppState, req: &crate::http::Request) -> (u16, String) {
    let rest = &req.path["/jobs/".len()..];
    let (id_str, tail) = match rest.split_once('/') {
        Some((id, tail)) => (id, Some(tail)),
        None => (rest, None),
    };
    let Ok(id) = id_str.parse::<u64>() else {
        return (400, error_body(&format!("invalid job id '{id_str}'")));
    };
    match tail {
        None => match state.queue.snapshot(id) {
            Some(snap) => match serde_json::to_string(&snap) {
                Ok(json) => (200, json),
                Err(e) => (500, error_body(&format!("serialize snapshot: {e}"))),
            },
            None => (404, error_body(&format!("no such job {id}"))),
        },
        Some("results") => {
            let top = match req.query_param("top") {
                None => None,
                Some(raw) => match raw.parse::<usize>() {
                    Ok(n) if n > 0 => Some(n),
                    _ => return (400, error_body(&format!("invalid top '{raw}'"))),
                },
            };
            match state.queue.results(id) {
                Some((mut report, _final)) => {
                    if let Some(n) = top {
                        report.results.truncate(n);
                    }
                    match report.to_json() {
                        Ok(json) => (200, json),
                        Err(e) => (500, error_body(&format!("serialize report: {e}"))),
                    }
                }
                None => (404, error_body(&format!("no such job {id}"))),
            }
        }
        Some(other) => (404, error_body(&format!("no such job endpoint '{other}'"))),
    }
}

/// `/history/best?model=X&top=N` over the persistent run store.
fn handle_history_best(state: &AppState, req: &crate::http::Request) -> (u16, String) {
    let Some(store) = &state.store else {
        return (
            503,
            error_body("no run store configured (start the daemon with --store)"),
        );
    };
    let model = req.query_param("model");
    let top = match req.query_param("top") {
        None => 10,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => return (400, error_body(&format!("invalid top '{raw}'"))),
        },
    };
    match store.best_for(model, top) {
        Ok(entries) => match serde_json::to_string(&entries) {
            Ok(json) => (200, format!("{{\"entries\":{json}}}")),
            Err(e) => (500, error_body(&format!("serialize entries: {e}"))),
        },
        Err(e) => (500, error_body(&e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::http_request;

    /// Binds a daemon on a free port and runs it on a background thread.
    fn spawn_server(config: ServeConfig) -> (String, std::thread::JoinHandle<ServeSummary>) {
        let server = Server::bind(config).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || server.run().unwrap());
        (addr, handle)
    }

    fn get(addr: &str, path: &str) -> crate::client::HttpResponse {
        http_request(addr, "GET", path, "").unwrap()
    }

    fn post(addr: &str, path: &str, body: &str) -> crate::client::HttpResponse {
        http_request(addr, "POST", path, body).unwrap()
    }

    #[test]
    fn whatif_sweep_jobs_and_shutdown_round_trip() {
        let (addr, handle) = spawn_server(ServeConfig::default());

        let health = get(&addr, "/healthz");
        assert_eq!(health.status, 200);
        assert!(health.body.contains("\"status\":\"ok\""), "{}", health.body);

        let models = get(&addr, "/models");
        assert_eq!(models.status, 200);
        assert!(models.body.contains("ResNet-50"), "{}", models.body);
        assert!(
            models.body.contains("\"warm_profiles\":[]"),
            "{}",
            models.body
        );

        // Cold what-if: builds the base, answers, and leaves it warm.
        let cold = post(&addr, "/whatif", r#"{"model": "ResNet-50", "opt": "amp"}"#);
        assert_eq!(cold.status, 200, "{}", cold.body);
        assert!(
            cold.body.contains("\"label\":\"ResNet-50 b4 amp\""),
            "{}",
            cold.body
        );

        let models = get(&addr, "/models");
        assert!(
            models.body.contains("\"model\":\"ResNet-50\""),
            "base must be resident after a what-if: {}",
            models.body
        );

        // Warm what-if on the same base: the metrics' incremental
        // counter must move (the whole point of the daemon). A P3 plan
        // resumes from the resident schedule after its first unrolled
        // iteration, so it counts as incremental, and it simulates on
        // the arena. (On this single-GPU base a bandwidth what-if would
        // count as incremental too, but it is a no-op that the schedule
        // answers without touching the arena.)
        let before_body = get(&addr, "/metrics").body;
        let before: u64 = metric(&before_body, "incremental_sims");
        let scratch_evals = |body: &str| metric(body, "reuses") + metric(body, "allocs");
        let warm = post(
            &addr,
            "/whatif",
            r#"{"model": "ResNet-50", "opt": "p3", "machines": 2, "bw": 10}"#,
        );
        assert_eq!(warm.status, 200, "{}", warm.body);
        let metrics_body = get(&addr, "/metrics").body;
        let after: u64 = metric(&metrics_body, "incremental_sims");
        assert!(
            after > before,
            "warm what-if must use the incremental path ({before} -> {after})"
        );
        // The warm path runs on a pooled scratch arena whose reuse
        // counters the metrics expose, alongside the sharded cache
        // counter arrays.
        assert!(
            scratch_evals(&metrics_body) > scratch_evals(&before_body),
            "warm eval must run on a pooled scratch arena: {metrics_body}"
        );
        for field in [
            "\"scratch\":",
            "\"shard_hits\":[",
            "\"shard_contended\":[",
            "\"recovery\":{\"retries\":",
            "\"jobs_recovered\":",
        ] {
            assert!(metrics_body.contains(field), "{field} in {metrics_body}");
        }

        // Submit a sweep job and poll it to completion.
        let submitted = post(
            &addr,
            "/sweep",
            r#"{"models": ["ResNet-50"], "batches": [4], "opts": ["baseline", "amp", "gist"]}"#,
        );
        assert_eq!(submitted.status, 202, "{}", submitted.body);
        assert!(
            submitted.body.contains("\"job_id\":1"),
            "{}",
            submitted.body
        );

        let mut last = String::new();
        for _ in 0..600 {
            last = get(&addr, "/jobs/1").body;
            if last.contains("\"state\":\"done\"") {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        assert!(
            last.contains("\"state\":\"done\""),
            "job never finished: {last}"
        );

        let results = get(&addr, "/jobs/1/results");
        assert_eq!(results.status, 200);
        assert!(
            results.body.contains("\"scenario_count\": 3"),
            "{}",
            results.body
        );
        let top1 = get(&addr, "/jobs/1/results?top=1");
        assert!(top1.body.len() < results.body.len());

        // Typed errors.
        assert_eq!(get(&addr, "/jobs/99").status, 404);
        assert_eq!(get(&addr, "/jobs/xyz").status, 400);
        assert_eq!(get(&addr, "/nope").status, 404);
        assert_eq!(post(&addr, "/healthz", "").status, 405);
        assert_eq!(post(&addr, "/whatif", "{not json").status, 400);
        assert_eq!(
            post(&addr, "/whatif", r#"{"model": "AlexNet"}"#).status,
            400
        );
        assert_eq!(post(&addr, "/sweep", r#"{"opts": ["turbo"]}"#).status, 400);
        // History without a store is 503, not a crash.
        assert_eq!(get(&addr, "/history/best").status, 503);

        let bye = post(&addr, "/shutdown", "");
        assert_eq!(bye.status, 200);
        let summary = handle.join().unwrap();
        assert_eq!(summary.stop_reason, "shutdown");
        assert_eq!(summary.jobs_submitted, 1);
        assert!(summary.requests >= 10);
    }

    #[test]
    fn history_best_is_served_from_the_store() {
        let root =
            std::env::temp_dir().join(format!("daydream-serve-history-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let (addr, handle) = spawn_server(ServeConfig {
            store_root: Some(root.clone()),
            ..ServeConfig::default()
        });

        let submitted = post(
            &addr,
            "/sweep",
            r#"{"models": ["ResNet-50"], "batches": [4], "opts": ["baseline", "amp"]}"#,
        );
        assert_eq!(submitted.status, 202, "{}", submitted.body);
        for _ in 0..600 {
            if get(&addr, "/jobs/1").body.contains("\"state\":\"done\"") {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        let snap = get(&addr, "/jobs/1");
        assert!(
            snap.body.contains("\"run_id\":\"run-0001\""),
            "{}",
            snap.body
        );

        let best = get(&addr, "/history/best?model=ResNet-50&top=5");
        assert_eq!(best.status, 200);
        assert!(
            best.body.contains("\"run_id\":\"run-0001\""),
            "{}",
            best.body
        );
        assert!(best.body.contains("ResNet-50"), "{}", best.body);
        // The model filter is real.
        let none = get(&addr, "/history/best?model=GNMT");
        assert!(none.body.contains("\"entries\":[]"), "{}", none.body);

        post(&addr, "/shutdown", "");
        handle.join().unwrap();
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn malformed_clients_get_typed_errors_and_the_daemon_survives() {
        let (addr, handle) = spawn_server(ServeConfig {
            limits: Limits {
                max_head_bytes: 1024,
                max_body_bytes: 2048,
            },
            ..ServeConfig::default()
        });

        // A fuzz-style battery of broken wire data, straight onto the
        // socket. Each must produce an HTTP error status, never a hang
        // or a daemon crash.
        let raw_cases: &[(&[u8], &str)] = &[
            (b"NOT-HTTP\r\n\r\n", " 400 "),
            (b"GET /metrics HTTP/2.0\r\n\r\n", " 505 "),
            (
                b"POST /whatif HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
                " 501 ",
            ),
            (
                b"POST /whatif HTTP/1.1\r\nContent-Length: 99999\r\n\r\n",
                " 413 ",
            ),
            (b"\xde\xad\xbe\xef\r\n\r\n", " 400 "),
        ];
        for (wire, want) in raw_cases {
            let mut stream = TcpStream::connect(&addr).unwrap();
            stream.write_all(wire).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            let mut out = Vec::new();
            stream.read_to_end(&mut out).ok();
            let text = String::from_utf8_lossy(&out);
            assert!(
                text.contains(want),
                "for {:?} expected{} got: {}",
                String::from_utf8_lossy(wire),
                want,
                text
            );
        }
        // An oversized head never gets buffered whole.
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.write_all(&vec![b'A'; 4096]).unwrap();
        let mut out = Vec::new();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.read_to_end(&mut out).ok();
        assert!(String::from_utf8_lossy(&out).contains(" 431 "));

        // After all that abuse, the daemon still answers politely.
        assert_eq!(get(&addr, "/healthz").status, 200);
        post(&addr, "/shutdown", "");
        handle.join().unwrap();
    }

    #[test]
    fn full_job_queue_sheds_with_429_and_a_retry_hint() {
        let (addr, handle) = spawn_server(ServeConfig {
            max_queued_jobs: 1,
            ..ServeConfig::default()
        });
        // A cold 24-scenario job keeps the queue occupied long enough
        // for the next submission to be shed deterministically.
        let body = r#"{"models": ["ResNet-50"], "batches": [4, 8, 16, 32],
                       "opts": ["baseline", "amp", "gist", "bandwidth", "vdnn", "reconstruct-bn"]}"#;
        assert_eq!(post(&addr, "/sweep", body).status, 202);

        // Second submission while the first is in flight: 429 with a
        // Retry-After header on the wire.
        let mut stream = TcpStream::connect(&addr).unwrap();
        let wire = format!(
            "POST /sweep HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        );
        stream.write_all(wire.as_bytes()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut out = Vec::new();
        stream.read_to_end(&mut out).ok();
        let text = String::from_utf8_lossy(&out);
        assert!(text.contains(" 429 "), "shed with 429: {text}");
        assert!(text.contains("Retry-After: 2"), "retry hint: {text}");
        assert!(text.contains("job queue is full"), "{text}");

        // Once the backlog drains, submissions are accepted again.
        for _ in 0..600 {
            if get(&addr, "/jobs/1").body.contains("\"state\":\"done\"") {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        assert_eq!(post(&addr, "/sweep", body).status, 202);
        post(&addr, "/shutdown", "");
        handle.join().unwrap();
    }

    #[test]
    fn whatif_answers_504_past_its_deadline() {
        let (addr, handle) = spawn_server(ServeConfig {
            whatif_deadline_ms: 1,
            ..ServeConfig::default()
        });
        // A cold what-if must build a profile first — far more than 1 ms.
        let late = post(&addr, "/whatif", r#"{"model": "ResNet-50", "opt": "amp"}"#);
        assert_eq!(late.status, 504, "{}", late.body);
        assert!(late.body.contains("deadline"), "{}", late.body);
        // The daemon survives and still answers.
        assert_eq!(get(&addr, "/healthz").status, 200);
        post(&addr, "/shutdown", "");
        handle.join().unwrap();
    }

    #[test]
    fn max_requests_bounds_the_daemon_lifetime() {
        let (addr, handle) = spawn_server(ServeConfig {
            max_requests: 2,
            ..ServeConfig::default()
        });
        assert_eq!(get(&addr, "/healthz").status, 200);
        assert_eq!(get(&addr, "/healthz").status, 200);
        let summary = handle.join().unwrap();
        assert_eq!(summary.stop_reason, "max-requests");
        assert_eq!(summary.requests, 2);
    }

    /// Pulls an integer field out of the flat metrics JSON.
    fn metric(body: &str, name: &str) -> u64 {
        let pat = format!("\"{name}\":");
        let start = body
            .find(&pat)
            .unwrap_or_else(|| panic!("{name} in {body}"))
            + pat.len();
        body[start..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect::<String>()
            .parse()
            .unwrap()
    }
}
