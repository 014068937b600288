//! `daydream-serve` — sweep-as-a-service: a resident HTTP daemon over
//! the warm sweep engine.
//!
//! The engine already amortizes everything expensive — compiled bases,
//! captured baseline schedules, DDP plans, patch caches — per *process*
//! ([`daydream_sweep::SweepEngine`] keeps them across `run` calls). This
//! crate amortizes them per *fleet*: one long-lived daemon owns one warm
//! engine, answers single-scenario what-ifs synchronously in
//! microseconds via the incremental path, drains grid submissions
//! through an async job queue with streaming ranked partial results,
//! and persists every completed job into a
//! [`daydream_shard::RunStore`] so "best scenario ever seen for model
//! X" is a query, not a re-run.
//!
//! The daemon is crash-safe and load-shedding: accepted jobs are
//! journaled into the run store *before* evaluation and drained through
//! the shard-worker protocol, so a daemon killed mid-job is recovered by
//! the next daemon (stale leases reclaimed, completed partials reused,
//! merged report byte-identical to an uninterrupted run); a bounded job
//! queue sheds excess submissions with `429` + `Retry-After`, `/whatif`
//! honors a per-request deadline (`504`), and [`http_request_retrying`]
//! gives clients capped exponential backoff with jitter.
//!
//! The HTTP/1.1 layer is hand-rolled over `std::net::TcpListener`
//! (build environment has no network for real dependencies — same
//! policy as the `vendor/` shims) and deliberately minimal: GET/POST,
//! `Content-Length` bodies, keep-alive with pipelining, strict size
//! limits, typed status codes for every malformed input. JSON is the
//! vendored serde.
//!
//! | Endpoint | Answer |
//! |---|---|
//! | `GET /healthz` | liveness + uptime |
//! | `GET /metrics` | engine-lifetime [`daydream_sweep::RunStats`] (each run's own work, summed) + cache + job counters + [`JobQueue::recovery`] |
//! | `GET /models` | model zoo + warm profile registry |
//! | `POST /whatif` | one scenario, evaluated synchronously against the warm base |
//! | `POST /sweep` | submit a grid; returns a job id |
//! | `GET /jobs/{id}` | job status (queued / running / done / failed) |
//! | `GET /jobs/{id}/results?top=N` | ranked report, partial while running |
//! | `GET /history/best?model=X` | best scenarios across all stored runs |
//! | `POST /shutdown` | graceful stop |

pub mod api;
pub mod client;
pub mod http;
pub mod jobs;
pub mod server;

pub use api::{SweepRequest, WhatIfRequest};
pub use client::{http_request, http_request_retrying, HttpResponse, QueryError};
pub use http::{HttpError, Limits, Request, RequestParser};
pub use jobs::{JobFailure, JobJournal, JobQueue, JobSnapshot, RecoveryStats};
pub use server::{ServeConfig, ServeSummary, Server};
