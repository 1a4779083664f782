//! # sawl-serve — crash-safe multi-tenant simulation daemon
//!
//! A long-running host for many concurrent lifetime simulations
//! ("tenants": one scheme × device × workload each), controlled over a
//! line-JSON socket and built for being killed:
//!
//! * [`protocol`] — the wire vocabulary: [`Request`]/[`Response`] as
//!   one-JSON-object-per-line over TCP or a Unix socket, plus the
//!   connection loop.
//! * [`daemon`] — the [`Daemon`]: tenant registry, MPMC worker pool
//!   slicing runs fairly across cores, periodic atomic checkpoints,
//!   graceful shutdown, and restart recovery from the state directory.
//! * [`signal`] — the SIGTERM/SIGINT latch the binary uses to turn
//!   signals into graceful shutdown (re-exported from `sawl-simctl`).
//! * [`b64`] — dependency-free standard base64, so clients can ship
//!   binary workload traces ([`Request::UploadTrace`]) down the
//!   line-JSON socket and replay them via `TraceFile` workloads.
//!
//! The crash-safety contract is inherited from
//! [`sawl_simctl::ResumableRun`]: every checkpoint is a versioned,
//! checksummed [`sawl_ckpt`] frame written tmp + fsync + rename, and a
//! tenant resumed from its last checkpoint continues **byte-identically**
//! — same [`LifetimeResult`](sawl_simctl::LifetimeResult), same
//! telemetry series — as if the daemon had never died. The integration
//! tests SIGKILL a live daemon mid-run and pin exactly that.

pub mod b64;
pub mod daemon;
pub mod protocol;
mod tenant;

pub use daemon::{Daemon, Endpoint, ServeConfig};
pub use protocol::{serve_connection, write_line, Request, Response, TenantStatus};
pub use sawl_simctl::signal;
