//! Append-only JSONL trace emission with hash-chain integrity.
//!
//! Ground-truth runs and simulated schedules are serialized as one JSON
//! record per line: a header (format version + [`TraceMeta`]), one line
//! per [`Activity`], one per [`LayerMarker`], and a final end record
//! carrying the record counts. Every line also carries the running
//! FNV-1a hash chain over all record payloads so far:
//!
//! ```text
//! {"chain":"<16 hex digits>","record":{...}}
//! ```
//!
//! The chain makes the artifact tamper-evident the way an append-only
//! audit log is: editing, reordering, or corrupting any record breaks
//! the chain at that line, and readers report the *first* offending
//! record as a typed [`TraceError`] instead of silently ingesting a
//! drifted golden trace. Truncation is caught by the mandatory end
//! record (a partial file has no valid end, or its counts disagree).
//!
//! Writing is streaming ([`TraceWriter`] emits records as they happen);
//! reading is line-oriented and never panics on malformed input.

use crate::activity::Activity;
use crate::marker::LayerMarker;
use crate::meta::TraceMeta;
use crate::trace::{Trace, TraceError};
use serde::{Deserialize, Serialize};
use std::io::Write;

/// Format version stamped into every header record.
pub const JSONL_VERSION: u32 = 1;

/// The FNV-1a 64-bit offset basis: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running FNV-1a 64-bit hash: the one byte loop
/// behind the trace chain, scenario keys and patch fingerprints.
#[inline]
pub fn fnv1a64_continue(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One line's payload in the chained JSONL stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Record {
    /// First line: format version and trace metadata.
    Header { version: u32, meta: TraceMeta },
    /// One activity record.
    Act { a: Activity },
    /// One layer-marker record.
    Mark { m: LayerMarker },
    /// Last line: record counts, for truncation detection.
    End { activities: u64, markers: u64 },
}

/// What a successful chain verification (or a finished write) observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainSummary {
    /// Total lines in the stream (header and end records included).
    pub records: usize,
    /// Activity records read or written.
    pub activities: u64,
    /// Layer-marker records read or written.
    pub markers: u64,
    /// Final chain value after the end record.
    pub chain: u64,
}

impl ChainSummary {
    /// The final chain as the 16-digit hex string manifests pin.
    pub fn chain_hex(&self) -> String {
        format!("{:016x}", self.chain)
    }
}

/// Streaming writer: emits hash-chained JSONL records as they happen.
///
/// Call [`TraceWriter::finish`] to append the end record; a stream
/// without one is reported as truncated by every reader.
pub struct TraceWriter<W: Write> {
    w: W,
    chain: u64,
    records: usize,
    activities: u64,
    markers: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a stream by writing the header record for `meta`.
    pub fn new(w: W, meta: &TraceMeta) -> Result<Self, TraceError> {
        let mut writer = TraceWriter {
            w,
            chain: FNV_OFFSET,
            records: 0,
            activities: 0,
            markers: 0,
        };
        writer.emit(&Record::Header {
            version: JSONL_VERSION,
            meta: meta.clone(),
        })?;
        Ok(writer)
    }

    fn emit(&mut self, record: &Record) -> Result<(), TraceError> {
        let payload =
            serde_json::to_string(record).map_err(|e| TraceError::Io(format!("{e:?}")))?;
        self.chain = fnv1a64_continue(self.chain, payload.as_bytes());
        writeln!(
            self.w,
            "{{\"chain\":\"{:016x}\",\"record\":{payload}}}",
            self.chain
        )
        .map_err(|e| TraceError::Io(e.to_string()))?;
        self.records += 1;
        Ok(())
    }

    /// Appends one activity record.
    pub fn activity(&mut self, a: &Activity) -> Result<(), TraceError> {
        self.emit(&Record::Act { a: a.clone() })?;
        self.activities += 1;
        Ok(())
    }

    /// Appends one layer-marker record.
    pub fn marker(&mut self, m: &LayerMarker) -> Result<(), TraceError> {
        self.emit(&Record::Mark { m: *m })?;
        self.markers += 1;
        Ok(())
    }

    /// The running chain value after the last emitted record.
    pub fn chain(&self) -> u64 {
        self.chain
    }

    /// Writes the end record and returns what the stream contains.
    pub fn finish(mut self) -> Result<ChainSummary, TraceError> {
        let end = Record::End {
            activities: self.activities,
            markers: self.markers,
        };
        self.emit(&end)?;
        self.w.flush().map_err(|e| TraceError::Io(e.to_string()))?;
        Ok(ChainSummary {
            records: self.records,
            activities: self.activities,
            markers: self.markers,
            chain: self.chain,
        })
    }
}

/// Serializes a whole trace to chained JSONL (header, activities in
/// order, markers in order, end record). Deterministic: equal traces
/// produce byte-identical streams with equal final chains.
pub fn to_jsonl(trace: &Trace) -> Result<String, TraceError> {
    let mut buf = Vec::new();
    let mut w = TraceWriter::new(&mut buf, &trace.meta)?;
    for a in &trace.activities {
        w.activity(a)?;
    }
    for m in &trace.markers {
        w.marker(m)?;
    }
    w.finish()?;
    String::from_utf8(buf).map_err(|e| TraceError::Io(e.to_string()))
}

const LINE_PREFIX: &str = "{\"chain\":\"";
const LINE_MID: &str = "\",\"record\":";

/// Parses and chain-verifies one line, advancing the running chain.
fn parse_line(line: &str, lineno: usize, chain: &mut u64) -> Result<Record, TraceError> {
    let malformed = |detail: &str| TraceError::Malformed {
        line: lineno,
        detail: detail.to_string(),
    };
    let rest = line
        .strip_prefix(LINE_PREFIX)
        .ok_or_else(|| malformed("missing chain framing"))?;
    if rest.len() < 16 + LINE_MID.len() + 1 {
        return Err(malformed("line too short"));
    }
    let (hex, rest) = rest.split_at(16);
    let found =
        u64::from_str_radix(hex, 16).map_err(|_| malformed("chain value is not 16 hex digits"))?;
    let payload = rest
        .strip_prefix(LINE_MID)
        .and_then(|r| r.strip_suffix('}'))
        .ok_or_else(|| malformed("missing record framing"))?;
    let expected = fnv1a64_continue(*chain, payload.as_bytes());
    if found != expected {
        return Err(TraceError::ChainMismatch {
            line: lineno,
            expected,
            found,
        });
    }
    *chain = expected;
    serde_json::from_str(payload).map_err(|e| TraceError::Malformed {
        line: lineno,
        detail: format!("{e:?}"),
    })
}

/// Walks a chained JSONL stream, verifying every line, handing each
/// record to `sink`, and enforcing the header/body/end structure.
fn walk(s: &str, mut sink: impl FnMut(Record)) -> Result<ChainSummary, TraceError> {
    let mut chain = FNV_OFFSET;
    let mut records = 0usize;
    let mut activities = 0u64;
    let mut markers = 0u64;
    let mut ended = false;
    let mut lineno = 0usize;
    for line in s.lines() {
        lineno += 1;
        if ended {
            return Err(TraceError::Malformed {
                line: lineno,
                detail: "data after end record".to_string(),
            });
        }
        let record = parse_line(line, lineno, &mut chain)?;
        records += 1;
        match (&record, lineno) {
            (Record::Header { version, .. }, 1) => {
                if *version != JSONL_VERSION {
                    return Err(TraceError::Malformed {
                        line: lineno,
                        detail: format!("unsupported format version {version}"),
                    });
                }
            }
            (Record::Header { .. }, _) => {
                return Err(TraceError::Malformed {
                    line: lineno,
                    detail: "duplicate header record".to_string(),
                });
            }
            (_, 1) => {
                return Err(TraceError::Malformed {
                    line: 1,
                    detail: "first record is not a header".to_string(),
                });
            }
            (Record::Act { .. }, _) => activities += 1,
            (Record::Mark { .. }, _) => markers += 1,
            (
                Record::End {
                    activities: ea,
                    markers: em,
                },
                _,
            ) => {
                if *ea != activities || *em != markers {
                    return Err(TraceError::Truncated {
                        line: lineno,
                        detail: format!(
                            "end record claims {ea} activities / {em} markers, \
                             stream has {activities} / {markers}"
                        ),
                    });
                }
                ended = true;
            }
        }
        sink(record);
    }
    if !ended {
        return Err(TraceError::Truncated {
            line: lineno,
            detail: if lineno == 0 {
                "empty stream".to_string()
            } else {
                "missing end record".to_string()
            },
        });
    }
    Ok(ChainSummary {
        records,
        activities,
        markers,
        chain,
    })
}

/// Reads a chained JSONL stream back into a [`Trace`], verifying the
/// hash chain and reporting the first corrupt or truncated record.
pub fn from_jsonl(s: &str) -> Result<Trace, TraceError> {
    let mut trace: Option<Trace> = None;
    walk(s, |record| match record {
        Record::Header { meta, .. } => trace = Some(Trace::empty(meta)),
        Record::Act { a } => {
            if let Some(t) = trace.as_mut() {
                t.activities.push(a);
            }
        }
        Record::Mark { m } => {
            if let Some(t) = trace.as_mut() {
                t.markers.push(m);
            }
        }
        Record::End { .. } => {}
    })?;
    trace.ok_or(TraceError::Truncated {
        line: 0,
        detail: "empty stream".to_string(),
    })
}

/// Verifies a chained JSONL stream without materializing the trace:
/// per-line chain check, structure check, and end-record counts.
/// Returns the summary (including the final chain the manifests pin).
pub fn verify_jsonl(s: &str) -> Result<ChainSummary, TraceError> {
    walk(s, |_| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activity::{ActivityKind, CudaApi};
    use crate::ids::{CorrelationId, CpuThreadId, DeviceId, Lane, LayerId, StreamId};
    use crate::marker::Phase;
    use crate::meta::Framework;

    fn sample_trace() -> Trace {
        let mut t = Trace::empty(TraceMeta {
            model: "toy".into(),
            framework: Framework::PyTorch,
            batch_size: 4,
            device: "RTX 2080 Ti".into(),
            iteration_start_ns: 0,
            iteration_end_ns: 100,
            gradients: vec![],
            buckets: vec![],
        });
        t.activities.push(Activity {
            name: "cudaLaunchKernel".into(),
            kind: ActivityKind::RuntimeApi(CudaApi::LaunchKernel),
            lane: Lane::Cpu(CpuThreadId(0)),
            start_ns: 0,
            dur_ns: 10,
            correlation: Some(CorrelationId(1)),
        });
        t.activities.push(Activity {
            name: "sgemm".into(),
            kind: ActivityKind::Kernel,
            lane: Lane::Gpu(DeviceId(0), StreamId(0)),
            start_ns: 12,
            dur_ns: 30,
            correlation: Some(CorrelationId(1)),
        });
        t.markers.push(LayerMarker {
            layer: LayerId(0),
            phase: Phase::Forward,
            thread: CpuThreadId(0),
            start_ns: 0,
            end_ns: 15,
        });
        t
    }

    #[test]
    fn jsonl_round_trip() {
        let t = sample_trace();
        let s = to_jsonl(&t).unwrap();
        assert_eq!(s.lines().count(), 1 + 2 + 1 + 1);
        let back = from_jsonl(&s).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn jsonl_is_deterministic() {
        let t = sample_trace();
        let a = to_jsonl(&t).unwrap();
        let b = to_jsonl(&t).unwrap();
        assert_eq!(a, b);
        assert_eq!(
            verify_jsonl(&a).unwrap().chain,
            verify_jsonl(&b).unwrap().chain
        );
    }

    #[test]
    fn verify_reports_counts_and_chain() {
        let s = to_jsonl(&sample_trace()).unwrap();
        let summary = verify_jsonl(&s).unwrap();
        assert_eq!(summary.records, 5);
        assert_eq!(summary.activities, 2);
        assert_eq!(summary.markers, 1);
        assert_eq!(summary.chain_hex().len(), 16);
    }

    #[test]
    fn streaming_writer_matches_whole_trace_export() {
        let t = sample_trace();
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf, &t.meta).unwrap();
        for a in &t.activities {
            w.activity(a).unwrap();
        }
        for m in &t.markers {
            w.marker(m).unwrap();
        }
        let summary = w.finish().unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert_eq!(s, to_jsonl(&t).unwrap());
        assert_eq!(summary, verify_jsonl(&s).unwrap());
    }

    #[test]
    fn tampered_record_is_detected_at_its_line() {
        let s = to_jsonl(&sample_trace()).unwrap();
        // Flip the sgemm kernel's duration (line 3) without touching its
        // carried chain value.
        let tampered = s.replace("\"dur_ns\":30", "\"dur_ns\":31");
        assert_ne!(s, tampered);
        let err = from_jsonl(&tampered).unwrap_err();
        assert!(
            matches!(err, TraceError::ChainMismatch { line: 3, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn truncated_stream_is_detected() {
        let s = to_jsonl(&sample_trace()).unwrap();
        // Drop the end record.
        let cut: Vec<&str> = s.lines().take(4).collect();
        let err = from_jsonl(&cut.join("\n")).unwrap_err();
        assert!(
            matches!(err, TraceError::Truncated { line: 4, .. }),
            "got {err:?}"
        );
        // Drop a record *before* the end: the chain of the next line no
        // longer matches.
        let mut lines: Vec<&str> = s.lines().collect();
        lines.remove(2);
        let err = from_jsonl(&lines.join("\n")).unwrap_err();
        assert!(
            matches!(err, TraceError::ChainMismatch { line: 3, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn malformed_lines_are_typed_not_panics() {
        assert!(matches!(
            from_jsonl("").unwrap_err(),
            TraceError::Truncated { line: 0, .. }
        ));
        assert!(matches!(
            from_jsonl("not json at all").unwrap_err(),
            TraceError::Malformed { line: 1, .. }
        ));
        let s = to_jsonl(&sample_trace()).unwrap();
        let with_garbage = format!("{s}garbage after the end\n");
        assert!(matches!(
            from_jsonl(&with_garbage).unwrap_err(),
            TraceError::Malformed { line: 6, .. }
        ));
    }

    #[test]
    fn end_count_mismatch_reports_truncation() {
        let t = sample_trace();
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf, &t.meta).unwrap();
        w.activity(&t.activities[0]).unwrap();
        // Lie about the counts by emitting an end record claiming more
        // activities than the stream holds.
        w.emit(&Record::End {
            activities: 2,
            markers: 0,
        })
        .unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(matches!(
            verify_jsonl(&s).unwrap_err(),
            TraceError::Truncated { line: 3, .. }
        ));
    }
}
