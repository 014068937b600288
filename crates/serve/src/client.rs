//! A minimal blocking HTTP/1.1 client for the daemon's API — used by
//! `daydream query`, the e2e tests, and the latency bench. One request
//! per connection (`Connection: close`), so response framing is just
//! "read to EOF".

use daydream_shard::RetryPolicy;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A parsed response: status code plus body.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpResponse {
    /// Numeric status code from the status line.
    pub status: u16,
    /// Response body (the daemon always sends JSON).
    pub body: String,
    /// `Retry-After` header in milliseconds, when the server sent one
    /// (it sheds load with 429 + a retry hint).
    pub retry_after_ms: Option<u64>,
}

impl HttpResponse {
    /// True for 2xx statuses.
    pub fn is_ok(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// Why a retried request ultimately failed — connection failures and
/// server errors are distinct so the CLI can say "is the daemon
/// running?" for one and quote the HTTP status for the other.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// Could not reach the daemon at all (refused, reset, timed out).
    Connect {
        /// Daemon address attempted.
        addr: String,
        /// Total attempts made (first try + retries).
        attempts: u32,
        /// The last connection error.
        last: String,
    },
    /// The daemon answered, but with a retryable error status every
    /// time (5xx, or 429 shedding).
    Http {
        /// Daemon address attempted.
        addr: String,
        /// Total attempts made (first try + retries).
        attempts: u32,
        /// The final response's status.
        status: u16,
        /// The final response's body.
        body: String,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Connect {
                addr,
                attempts,
                last,
            } => write!(
                f,
                "cannot connect to {addr} after {attempts} attempt(s) ({last}) — \
                 is the daemon running?"
            ),
            QueryError::Http {
                addr,
                attempts,
                status,
                body,
            } => write!(
                f,
                "daemon at {addr} answered HTTP {status} after {attempts} attempt(s): {body}"
            ),
        }
    }
}

/// [`http_request`] with bounded retry: connection failures, 5xx, and
/// 429 responses are retried after [`RetryPolicy::backoff_ms`] (a 429's
/// `Retry-After` hint raises the floor); any other response — including
/// 4xx — is returned as-is for the caller to interpret.
pub fn http_request_retrying(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    policy: RetryPolicy,
) -> Result<HttpResponse, QueryError> {
    let mut last: Result<HttpResponse, String> = Err("unattempted".into());
    for attempt in 0..=policy.max_retries {
        last = http_request(addr, method, path, body);
        let retry_floor_ms = match &last {
            Ok(resp) if resp.status < 500 && resp.status != 429 => return Ok(resp.clone()),
            Ok(resp) => resp.retry_after_ms.unwrap_or(0),
            Err(_) => 0,
        };
        if attempt < policy.max_retries {
            let wait = policy.backoff_ms(attempt).max(retry_floor_ms);
            std::thread::sleep(Duration::from_millis(wait));
        }
    }
    let attempts = policy.max_retries + 1;
    match last {
        Ok(resp) => Err(QueryError::Http {
            addr: addr.into(),
            attempts,
            status: resp.status,
            body: resp.body,
        }),
        Err(e) => Err(QueryError::Connect {
            addr: addr.into(),
            attempts,
            last: e,
        }),
    }
}

/// Sends one request to `addr` and reads the full response. `body` is
/// sent as `application/json` when non-empty.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<HttpResponse, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| e.to_string())?;
    request_over(stream, method, path, body)
}

fn request_over(
    mut stream: TcpStream,
    method: &str,
    path: &str,
    body: &str,
) -> Result<HttpResponse, String> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: daydream\r\nConnection: close\r\n");
    if !body.is_empty() {
        head.push_str(&format!(
            "Content-Type: application/json\r\nContent-Length: {}\r\n",
            body.len()
        ));
    }
    head.push_str("\r\n");
    stream
        .write_all(head.as_bytes())
        .and_then(|_| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("send request: {e}"))?;

    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read response: {e}"))?;
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> Result<HttpResponse, String> {
    let text = String::from_utf8_lossy(raw);
    let (head, response_body) = text
        .split_once("\r\n\r\n")
        .ok_or("response missing header terminator")?;
    let status_line = head.lines().next().unwrap_or("");
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("malformed status line '{status_line}'"))?;
    // Connection: close framing — the body is everything after the
    // headers, but honor Content-Length if the server sent one and the
    // stream carried trailing bytes.
    let declared = head.lines().skip(1).find_map(|line| {
        let (name, value) = line.split_once(':')?;
        if name.trim().eq_ignore_ascii_case("content-length") {
            value.trim().parse::<usize>().ok()
        } else {
            None
        }
    });
    let body = match declared {
        Some(n) if n <= response_body.len() => response_body[..n].to_string(),
        _ => response_body.to_string(),
    };
    // Retry-After arrives in whole seconds (the only form the daemon
    // emits); keep it in milliseconds for the backoff arithmetic.
    let retry_after_ms = head.lines().skip(1).find_map(|line| {
        let (name, value) = line.split_once(':')?;
        if name.trim().eq_ignore_ascii_case("retry-after") {
            value.trim().parse::<u64>().ok().map(|s| s * 1000)
        } else {
            None
        }
    });
    Ok(HttpResponse {
        status,
        body,
        retry_after_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_response_with_content_length() {
        let raw =
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}";
        let resp = parse_response(raw).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "{}");
        assert!(resp.is_ok());
    }

    #[test]
    fn parses_an_error_response_without_content_length() {
        let raw = b"HTTP/1.1 404 Not Found\r\n\r\n{\"error\":\"no\"}";
        let resp = parse_response(raw).unwrap();
        assert_eq!(resp.status, 404);
        assert_eq!(resp.body, "{\"error\":\"no\"}");
        assert!(!resp.is_ok());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"not http").is_err());
        assert!(parse_response(b"HTTP/1.1 abc\r\n\r\n").is_err());
    }

    #[test]
    fn parses_a_retry_after_hint() {
        let raw = b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 2\r\n\r\n{}";
        let resp = parse_response(raw).unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.retry_after_ms, Some(2000));
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n\r\n{}")
            .unwrap()
            .retry_after_ms
            .is_none());
    }

    #[test]
    fn connection_failures_are_distinguished_from_server_errors() {
        // Nothing listens on a fresh ephemeral port we bind then drop.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");
        let opts = RetryPolicy {
            max_retries: 2,
            base_backoff_ms: 1,
            max_backoff_ms: 2,
            seed: 0,
        };
        let err = http_request_retrying(&addr, "GET", "/healthz", "", opts).unwrap_err();
        match &err {
            QueryError::Connect { attempts, .. } => assert_eq!(*attempts, 3),
            other => panic!("expected Connect, got {other:?}"),
        }
        assert!(err.to_string().contains("is the daemon running?"), "{err}");

        // A server that answers 500 twice then 200: the client retries
        // through to the success.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let responses: [&[u8]; 3] = [
                b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 2\r\n\r\n{}",
                b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 2\r\n\r\n{}",
                b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}",
            ];
            for wire in responses {
                let (mut stream, _) = listener.accept().unwrap();
                let mut sink = [0u8; 1024];
                let request_bytes = stream.read(&mut sink).unwrap();
                assert!(request_bytes > 0, "the client must send a request");
                stream.write_all(wire).unwrap();
            }
        });
        let resp = http_request_retrying(&addr, "GET", "/healthz", "", opts).unwrap();
        assert_eq!(resp.status, 200);
        server.join().unwrap();

        // Exhausted retries against a persistent 5xx name the status.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut stream, _) = listener.accept().unwrap();
                let mut sink = [0u8; 1024];
                let request_bytes = stream.read(&mut sink).unwrap();
                assert!(request_bytes > 0, "the client must send a request");
                stream
                    .write_all(b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 2\r\n\r\n{}")
                    .unwrap();
            }
        });
        let opts = RetryPolicy {
            max_retries: 1,
            ..opts
        };
        let err = http_request_retrying(&addr, "GET", "/healthz", "", opts).unwrap_err();
        match &err {
            QueryError::Http {
                attempts, status, ..
            } => {
                assert_eq!(*attempts, 2);
                assert_eq!(*status, 503);
            }
            other => panic!("expected Http, got {other:?}"),
        }
        assert!(err.to_string().contains("HTTP 503"), "{err}");
        server.join().unwrap();
    }
}
