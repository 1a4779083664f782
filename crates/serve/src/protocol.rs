//! Line-JSON control protocol.
//!
//! One request per line, one response line back — serde's
//! externally-tagged encoding, so a unit command is a bare JSON string
//! (`"Status"`) and a payload command wraps its fields
//! (`{"Submit":{"tenant":"a","spec":{...}}}`). Connections are
//! short-lived: a client sends any number of request lines and the
//! daemon answers each in order; EOF (or a `Shutdown` exchange) ends the
//! conversation. Malformed lines never kill the connection — they come
//! back as [`Response::Error`].

use std::io::{BufRead, BufReader, Read, Write};

use sawl_simctl::{LifetimeExperiment, LifetimeResult};
use serde::{Deserialize, Serialize};

/// A control command, one JSON line on the wire.
///
/// `Submit` carries its spec inline, so the enum is as large as a
/// [`LifetimeExperiment`]. A request lives for one line's handling, and
/// boxing the spec would break every client's `Submit { tenant, spec }`
/// literal, so the size is accepted.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Start a new tenant running `spec` under the name `tenant`.
    Submit {
        /// Tenant name — path-safe (`[A-Za-z0-9._-]`), unique in the daemon.
        tenant: String,
        /// The lifetime experiment to run.
        spec: LifetimeExperiment,
    },
    /// Store a binary workload trace in the daemon's state directory so
    /// later `Submit` commands can replay it via a `TraceFile` workload.
    /// The bytes are validated against the trace format before anything
    /// touches disk; the answer ([`Response::TraceStored`]) carries the
    /// server-side path to put in the spec. Clients that already share a
    /// filesystem with the daemon can skip the upload and submit a
    /// `TraceFile` spec pointing at any server-visible path directly.
    UploadTrace {
        /// File stem, same charset rules as tenant names; stored as
        /// `<name>.trc`. Re-uploading a name replaces the trace.
        name: String,
        /// The trace bytes, standard padded base64 ([`crate::b64`]).
        data: String,
    },
    /// Progress of every tenant, alphabetically.
    Status,
    /// Progress of one tenant.
    Tenant {
        /// The tenant to report on.
        tenant: String,
    },
    /// The finished tenant's full [`LifetimeResult`].
    Result {
        /// The tenant whose result to fetch.
        tenant: String,
    },
    /// Force an immediate checkpoint of every running tenant.
    Checkpoint,
    /// Graceful shutdown: quiesce workers, checkpoint every running
    /// tenant, exit 0.
    Shutdown,
}

/// The daemon's answer, one JSON line on the wire.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Response {
    /// Command accepted.
    Ok,
    /// Liveness echo.
    Pong,
    /// Command failed; nothing changed.
    Error {
        /// What went wrong.
        message: String,
    },
    /// Per-tenant progress snapshots.
    Status {
        /// One entry per requested tenant, alphabetical.
        tenants: Vec<TenantStatus>,
    },
    /// A finished tenant's result.
    Result {
        /// The tenant the result belongs to.
        tenant: String,
        /// The complete lifetime report.
        result: Box<LifetimeResult>,
    },
    /// An uploaded trace was validated and stored.
    TraceStored {
        /// Server-side path of the stored trace, ready to paste into a
        /// `TraceFile` workload spec.
        path: String,
        /// Requests recorded in the trace.
        requests: u64,
        /// Address-space size (lines) the trace was recorded against —
        /// the submitted experiment's `data_lines` must match.
        space_lines: u64,
    },
    /// How many running tenants were checkpointed.
    Checkpointed {
        /// Tenants whose checkpoint files were rewritten.
        tenants: u64,
    },
    /// Shutdown acknowledged; the daemon is quiescing.
    ShuttingDown,
}

/// One tenant's progress snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantStatus {
    /// Tenant name.
    pub tenant: String,
    /// `"running"`, `"finished"`, or `"failed"`.
    pub state: String,
    /// Demand writes served so far.
    pub demand_writes: u64,
    /// The run's demand-write cap.
    pub cap: u64,
    /// Completed stream batches (the checkpoint cursor).
    pub batches: u64,
    /// The failure message, for `"failed"` tenants.
    pub error: Option<String>,
}

impl Response {
    /// Shorthand for an error response.
    pub fn error(message: impl Into<String>) -> Self {
        Response::Error { message: message.into() }
    }
}

/// Serialize `value` as one newline-terminated JSON line and flush.
pub fn write_line<W: Write, T: Serialize>(w: &mut W, value: &T) -> std::io::Result<()> {
    let json = serde_json::to_string(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    w.write_all(json.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Answer every request line on `stream` until EOF, via `handle`.
///
/// Returns `true` if the conversation ended with a `Shutdown` exchange
/// (the response is still written before the connection closes).
pub fn serve_connection<S, F>(stream: S, mut handle: F) -> std::io::Result<bool>
where
    S: Read + Write,
    F: FnMut(Request) -> Response,
{
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(false);
        }
        if line.trim().is_empty() {
            continue;
        }
        let (response, shutdown) = match serde_json::from_str::<Request>(line.trim()) {
            Ok(req) => {
                let shutdown = matches!(req, Request::Shutdown);
                (handle(req), shutdown)
            }
            Err(e) => (Response::error(format!("malformed request: {e}")), false),
        };
        write_line(reader.get_mut(), &response)?;
        if shutdown {
            return Ok(true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_json_lines() {
        for req in [
            Request::Ping,
            Request::Status,
            Request::UploadTrace { name: "t0".into(), data: "Zm9vYmFy".into() },
            Request::Tenant { tenant: "a".into() },
            Request::Result { tenant: "a".into() },
            Request::Checkpoint,
            Request::Shutdown,
        ] {
            let json = serde_json::to_string(&req).unwrap();
            assert!(!json.contains('\n'), "line protocol forbids newlines: {json}");
            let back: Request = serde_json::from_str(&json).unwrap();
            assert_eq!(format!("{req:?}"), format!("{back:?}"));
        }
    }

    #[test]
    fn serve_connection_answers_each_line_and_flags_shutdown() {
        struct Duplex {
            input: std::io::Cursor<Vec<u8>>,
            output: Vec<u8>,
        }
        impl Read for Duplex {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.input.read(buf)
            }
        }
        impl Write for Duplex {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.output.write(buf)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let input = b"\"Ping\"\nnot json\n\"Shutdown\"\n\"Ping\"\n".to_vec();
        let mut out_probe = Vec::new();
        let shutdown = {
            let duplex = Duplex { input: std::io::Cursor::new(input), output: Vec::new() };
            let mut reqs = Vec::new();
            // Wrap so we can keep the output after serve_connection consumes
            // the stream: answer via the handler, then inspect lines.
            struct Tap<'a>(Duplex, &'a mut Vec<u8>);
            impl Read for Tap<'_> {
                fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                    self.0.read(buf)
                }
            }
            impl Write for Tap<'_> {
                fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                    self.1.extend_from_slice(buf);
                    Ok(buf.len())
                }
                fn flush(&mut self) -> std::io::Result<()> {
                    Ok(())
                }
            }
            serve_connection(Tap(duplex, &mut out_probe), |req| {
                reqs.push(format!("{req:?}"));
                match req {
                    Request::Ping => Response::Pong,
                    Request::Shutdown => Response::ShuttingDown,
                    _ => Response::Ok,
                }
            })
            .unwrap()
        };
        assert!(shutdown, "third line was a Shutdown");
        let lines: Vec<&str> = std::str::from_utf8(&out_probe).unwrap().lines().collect();
        assert_eq!(lines.len(), 3, "ping + malformed + shutdown answered, then stop");
        assert_eq!(lines[0], "\"Pong\"");
        assert!(lines[1].contains("malformed request"), "{}", lines[1]);
        assert_eq!(lines[2], "\"ShuttingDown\"");
    }
}
