//! A crash-safe shot-service daemon for the QPDO simulation stack
//! (`DESIGN.md` §9).
//!
//! Clients connect over TCP, submit shot jobs (Surface-17 LER points,
//! random-circuit verifications, odd-Bell histograms), and poll for the
//! results. The daemon is built for hostile conditions:
//!
//! - **Write-ahead journal** ([`wal`]): every `accepted → dispatched →
//!   completed` transition is a CRC-framed, fsync'd record in the
//!   shared [`qpdo_core::journal`], which the fleet router's binding
//!   log and the experiment sweeps use too. `kill -9` at any instant
//!   loses at most the jobs never acknowledged; every
//!   acknowledged job is re-executed on restart onto a byte-identical
//!   result (deterministic substream seeding), exactly once.
//! - **Group commit** ([`commit`]): appends are batched by a dedicated
//!   commit thread — many records per fsync, acked only after the
//!   batch syncs. A failed fsync latches the daemon into a degraded
//!   refuse-new-work state instead of ever acking unsynced bytes.
//! - **Admission control** ([`daemon`]): a bounded queue sheds load
//!   with an explicit `overloaded` rejection instead of collapsing;
//!   per-job deadlines cancel cooperatively through the supervised
//!   worker pool; a drain request stops admission and waits the queue
//!   dry.
//! - **Nonblocking event loop** ([`eventloop`]): one thread
//!   multiplexes hundreds of connections with per-connection state
//!   machines ([`frame`]), read/write deadlines that reap slowloris
//!   peers, and byte-budget backpressure.
//! - **Bounded retries** ([`daemon`]): each job kind runs on its one
//!   deterministic backend ([`job::JobKind::backend`]); a failed attempt
//!   is requeued and rerun there until `max_job_attempts`, then the job
//!   fails terminally.
//! - **Circuit breakers** ([`breaker`]): the three-state machine the
//!   fleet router keeps per member daemon.
//!
//! The wire protocol ([`protocol`]) is a minimal length-prefixed codec
//! over the same CRC framing the journal uses — std-only, no external
//! dependencies. `bin/qpdo_serve` is the daemon, `bin/serve_chaos` the
//! adversarial client that kills and restarts it mid-load.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod breaker;
pub mod commit;
pub mod daemon;
pub mod eventloop;
pub mod frame;
pub mod job;
pub mod protocol;
pub mod wal;
