//! The wire protocol of the shot service (`DESIGN.md` §9.1).
//!
//! Every message is one record in the repo's CRC framing
//! ([`qpdo_core::journal`]): `[len u32 BE][crc32 u32 BE][payload]`,
//! the payload a single UTF-8 line whose first token is the verb. The
//! same framing protects the write-ahead journal, so a protocol
//! implementation is also a journal reader.
//!
//! Requests: `submit <id> <deadline_ms|-> <kind…>`, `query <id>`,
//! `progress <id>`, `health`, `drain`.
//!
//! Responses: `accepted <id>`, `duplicate <id>`,
//! `rejected <code> <detail…>`, `state <id> queued|running`,
//! `done <id> <record…>`, `failed <id> <error…>`,
//! `partial <id> <shots> <target> <failures> <ci_lo> <ci_hi>` (the
//! anytime terminal of a deadline-expired shot sweep),
//! `progress <id> <batches> <shots> <failures>` (live checkpoint of a
//! known job), `health <snapshot>`,
//! `drained`. Rejections carry a stable machine-readable [`RejectCode`]
//! ahead of the free-text detail: the fleet router keys safety-critical
//! delivery decisions on the code (`DESIGN.md` §11.3), never on the
//! wording of the detail. A `rejected` line whose first token is not a
//! known code parses as [`RejectCode::Other`] with the whole remainder
//! as detail, so pre-code peers remain readable.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use qpdo_core::journal::{read_record, write_record};

use crate::job::JobSpec;

/// A client-to-daemon message.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit a job (idempotent on the job id).
    Submit(JobSpec),
    /// Ask for the state or result of a job.
    Query(String),
    /// Ask for a job's live execution progress (completed batches and
    /// shot counters); terminal jobs answer with their terminal state.
    Progress(String),
    /// Ask for the service health snapshot.
    Health,
    /// Stop admission, wait for the queue to dry, then shut down.
    Drain,
}

impl Request {
    /// The wire line for this request.
    #[must_use]
    pub fn encode(&self) -> String {
        match self {
            Request::Submit(spec) => format!("submit {} {}", spec.id, spec.encode_tail()),
            Request::Query(id) => format!("query {id}"),
            Request::Progress(id) => format!("progress {id}"),
            Request::Health => "health".to_owned(),
            Request::Drain => "drain".to_owned(),
        }
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason on malformed input (sent back to
    /// the client as a `rejected` response).
    pub fn parse(line: &str) -> Result<Self, String> {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens.as_slice() {
            ["submit", rest @ ..] => Ok(Request::Submit(JobSpec::parse(rest)?)),
            ["query", id] => Ok(Request::Query((*id).to_owned())),
            ["progress", id] => Ok(Request::Progress((*id).to_owned())),
            ["health"] => Ok(Request::Health),
            ["drain"] => Ok(Request::Drain),
            _ => Err(format!("unknown request {line:?}")),
        }
    }
}

/// Machine-readable classification of a `rejected` response.
///
/// The code is part of the wire contract, not a display hint: the
/// fleet router decides whether a rejected submit is *proof the id is
/// not held by the member* (safe to fail over) or merely *proof this
/// attempt was not admitted* (must stay parked) from the code alone.
///
/// Codes marked **post-dedup** are only ever issued after the daemon
/// checked the submitted id against its journal state (live jobs map
/// plus pruned-id ledger), so receiving one proves the id is not in
/// that daemon's WAL. All other codes carry no such proof — `busy` in
/// particular is sent by the connection-level shed before any request
/// line is read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectCode {
    /// Connection-level shed: the peer was over its connection cap and
    /// answered before reading the request (no dedup check ran).
    Busy,
    /// Admission-control shed: queue or in-flight cap (**post-dedup**).
    Overloaded,
    /// Draining: not accepting new jobs (**post-dedup**).
    Draining,
    /// A journal append failed mid-admission: whether the record
    /// reached disk is ambiguous.
    Journal,
    /// The journal can no longer make new records durable (a commit
    /// fsync failed): the daemon refuses new work until restarted
    /// (**post-dedup** — the dedup check ran against the intact
    /// in-memory mirror before this was issued).
    Degraded,
    /// The id already reached a terminal state whose record was pruned
    /// by journal retention (**post-dedup**).
    Pruned,
    /// A query for an id this service has never accepted.
    UnknownJob,
    /// Unparseable request line or torn frame (no dedup check ran).
    Malformed,
    /// No backend or fleet member can take the request.
    Unavailable,
    /// Anything else, including free-text reasons from pre-code peers.
    Other,
}

impl RejectCode {
    /// The stable wire token for this code.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RejectCode::Busy => "busy",
            RejectCode::Overloaded => "overloaded",
            RejectCode::Draining => "draining",
            RejectCode::Journal => "journal",
            RejectCode::Degraded => "degraded",
            RejectCode::Pruned => "pruned",
            RejectCode::UnknownJob => "unknown-job",
            RejectCode::Malformed => "malformed",
            RejectCode::Unavailable => "unavailable",
            RejectCode::Other => "other",
        }
    }

    /// Parses a wire token; `None` for unknown tokens (the caller
    /// falls back to [`RejectCode::Other`]).
    #[must_use]
    pub fn parse(token: &str) -> Option<Self> {
        Some(match token {
            "busy" => RejectCode::Busy,
            "overloaded" => RejectCode::Overloaded,
            "draining" => RejectCode::Draining,
            "journal" => RejectCode::Journal,
            "degraded" => RejectCode::Degraded,
            "pruned" => RejectCode::Pruned,
            "unknown-job" => RejectCode::UnknownJob,
            "malformed" => RejectCode::Malformed,
            "unavailable" => RejectCode::Unavailable,
            "other" => RejectCode::Other,
            _ => return None,
        })
    }
}

/// A coded rejection: the stable [`RejectCode`] plus human-readable
/// detail text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rejection {
    /// The machine-readable classification.
    pub code: RejectCode,
    /// The human-readable explanation (never interpreted by peers).
    pub detail: String,
}

impl Rejection {
    /// Builds a rejection from a code and detail text.
    pub fn new(code: RejectCode, detail: impl Into<String>) -> Self {
        Rejection {
            code,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.detail.is_empty() {
            write!(f, "{}", self.code.name())
        } else {
            write!(f, "{}", self.detail)
        }
    }
}

/// The terminal or in-flight state of a job, as reported to clients.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// Executing on the worker pool.
    Running,
    /// Finished; the whitespace-separated result record.
    Done(String),
    /// Terminally failed; the error description.
    Failed(String),
    /// Terminal anytime-partial result of a deadline-expired shot
    /// sweep: `<shots> <target> <failures> <ci_lo> <ci_hi>` — the
    /// completed prefix's estimator with its Wilson interval. Delivered
    /// and terminal like `Done`.
    Partial(String),
}

/// A point-in-time health snapshot of the daemon.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Whether the daemon still accepts new jobs.
    pub accepting: bool,
    /// Jobs waiting in the admission queue.
    pub queued: usize,
    /// Jobs currently on the worker pool.
    pub running: usize,
    /// Jobs accepted since the journal began (including recovered).
    pub accepted: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs terminally failed.
    pub failed: u64,
    /// Submissions rejected by admission control.
    pub shed: u64,
    /// Submissions deduplicated against an existing id.
    pub duplicates: u64,
    /// Jobs ended with an anytime-partial terminal at deadline expiry.
    pub partials: u64,
    /// Shot-sweep batches executed by the worker pool since startup —
    /// the execution counter the resume drill compares against a
    /// scratch run to prove checkpoints actually saved work.
    pub batches: u64,
    /// Whether progress checkpointing is active. Degrades to `false`
    /// when a progress append fails (e.g. injected ENOSPC): jobs keep
    /// running, but a crash would replay them from their last durable
    /// checkpoint, not from the batches executed since.
    pub checkpointing: bool,
}

impl HealthSnapshot {
    fn encode(&self) -> String {
        format!(
            "health {} queued={} running={} accepted={} completed={} failed={} shed={} \
             duplicates={} partials={} batches={} checkpoint={}",
            if self.accepting { "ok" } else { "draining" },
            self.queued,
            self.running,
            self.accepted,
            self.completed,
            self.failed,
            self.shed,
            self.duplicates,
            self.partials,
            self.batches,
            if self.checkpointing { "on" } else { "off" },
        )
    }

    fn parse(tokens: &[&str]) -> Result<Self, String> {
        let bad = || format!("malformed health snapshot: {tokens:?}");
        let [mode, fields @ ..] = tokens else {
            return Err(bad());
        };
        let accepting = match *mode {
            "ok" => true,
            "draining" => false,
            _ => return Err(bad()),
        };
        let mut snapshot = HealthSnapshot {
            accepting,
            queued: 0,
            running: 0,
            accepted: 0,
            completed: 0,
            failed: 0,
            shed: 0,
            duplicates: 0,
            partials: 0,
            batches: 0,
            checkpointing: true,
        };
        for field in fields {
            let (key, value) = field.split_once('=').ok_or_else(bad)?;
            match key {
                "queued" => snapshot.queued = value.parse().map_err(|_| bad())?,
                "running" => snapshot.running = value.parse().map_err(|_| bad())?,
                "accepted" => snapshot.accepted = value.parse().map_err(|_| bad())?,
                "completed" => snapshot.completed = value.parse().map_err(|_| bad())?,
                "failed" => snapshot.failed = value.parse().map_err(|_| bad())?,
                "shed" => snapshot.shed = value.parse().map_err(|_| bad())?,
                "duplicates" => snapshot.duplicates = value.parse().map_err(|_| bad())?,
                "partials" => snapshot.partials = value.parse().map_err(|_| bad())?,
                "batches" => snapshot.batches = value.parse().map_err(|_| bad())?,
                "checkpoint" => {
                    snapshot.checkpointing = match value {
                        "on" => true,
                        "off" => false,
                        _ => return Err(bad()),
                    }
                }
                // A key this version does not know comes from a daemon
                // of another version; skipping it keeps mixed-version
                // fleets healthy.
                _ => {}
            }
        }
        Ok(snapshot)
    }
}

/// A daemon-to-client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The submitted job was journaled and queued.
    Accepted(String),
    /// The id is already known; submission was idempotently absorbed.
    Duplicate(String),
    /// The request was refused (overload, drain, malformed input).
    Rejected(Rejection),
    /// A queried job's current state.
    State(String, JobState),
    /// A known job's live execution progress: completed whole batches
    /// and the shot counters accumulated over them (all zero before the
    /// first completed batch, or for kinds that do not checkpoint).
    Progress {
        /// The job id.
        id: String,
        /// Completed whole batches.
        batches: u64,
        /// Shots counted over those batches.
        shots: u64,
        /// Failures among those shots.
        failures: u64,
    },
    /// The health snapshot.
    Health(Box<HealthSnapshot>),
    /// Drain finished: the queue is dry and the daemon is exiting.
    Drained,
}

impl Response {
    /// Builds a coded rejection response.
    pub fn rejected(code: RejectCode, detail: impl Into<String>) -> Response {
        Response::Rejected(Rejection::new(code, detail))
    }

    /// The wire line for this response.
    #[must_use]
    pub fn encode(&self) -> String {
        match self {
            Response::Accepted(id) => format!("accepted {id}"),
            Response::Duplicate(id) => format!("duplicate {id}"),
            Response::Rejected(rejection) if rejection.detail.is_empty() => {
                format!("rejected {}", rejection.code.name())
            }
            Response::Rejected(rejection) => {
                format!("rejected {} {}", rejection.code.name(), rejection.detail)
            }
            Response::State(id, JobState::Queued) => format!("state {id} queued"),
            Response::State(id, JobState::Running) => format!("state {id} running"),
            Response::State(id, JobState::Done(record)) => format!("done {id} {record}"),
            Response::State(id, JobState::Failed(error)) => format!("failed {id} {error}"),
            Response::State(id, JobState::Partial(detail)) => format!("partial {id} {detail}"),
            Response::Progress {
                id,
                batches,
                shots,
                failures,
            } => format!("progress {id} {batches} {shots} {failures}"),
            Response::Health(snapshot) => snapshot.encode(),
            Response::Drained => "drained".to_owned(),
        }
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason on malformed input.
    pub fn parse(line: &str) -> Result<Self, String> {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens.as_slice() {
            ["accepted", id] => Ok(Response::Accepted((*id).to_owned())),
            ["duplicate", id] => Ok(Response::Duplicate((*id).to_owned())),
            ["rejected", code, detail @ ..] if RejectCode::parse(code).is_some() => {
                Ok(Response::Rejected(Rejection {
                    code: RejectCode::parse(code).expect("guard checked"),
                    detail: detail.join(" "),
                }))
            }
            // Pre-code peers send free text; keep it readable as Other.
            ["rejected", reason @ ..] => {
                Ok(Response::rejected(RejectCode::Other, reason.join(" ")))
            }
            ["state", id, "queued"] => Ok(Response::State((*id).to_owned(), JobState::Queued)),
            ["state", id, "running"] => Ok(Response::State((*id).to_owned(), JobState::Running)),
            ["done", id, record @ ..] => Ok(Response::State(
                (*id).to_owned(),
                JobState::Done(record.join(" ")),
            )),
            ["failed", id, error @ ..] => Ok(Response::State(
                (*id).to_owned(),
                JobState::Failed(error.join(" ")),
            )),
            ["partial", id, detail @ ..] => Ok(Response::State(
                (*id).to_owned(),
                JobState::Partial(detail.join(" ")),
            )),
            ["progress", id, batches, shots, failures] => {
                let field = |token: &str| {
                    token
                        .parse::<u64>()
                        .map_err(|_| format!("malformed progress field {token:?}"))
                };
                Ok(Response::Progress {
                    id: (*id).to_owned(),
                    batches: field(batches)?,
                    shots: field(shots)?,
                    failures: field(failures)?,
                })
            }
            ["health", rest @ ..] => Ok(Response::Health(Box::new(HealthSnapshot::parse(rest)?))),
            ["drained"] => Ok(Response::Drained),
            _ => Err(format!("unknown response {line:?}")),
        }
    }
}

/// Writes one protocol message (a framed UTF-8 line) to a stream.
///
/// # Errors
///
/// Propagates the underlying write error.
pub fn send_line<W: Write>(writer: &mut W, line: &str) -> io::Result<()> {
    write_record(writer, line.as_bytes())?;
    writer.flush()
}

/// Reads one protocol message from a stream. `Ok(None)` on clean EOF.
///
/// # Errors
///
/// `InvalidData` for torn/corrupt frames or non-UTF-8 payloads,
/// otherwise the underlying read error.
pub fn recv_line<R: Read>(reader: &mut R) -> io::Result<Option<String>> {
    match read_record(reader)? {
        None => Ok(None),
        Some(payload) => String::from_utf8(payload)
            .map(Some)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 protocol payload")),
    }
}

/// A blocking request/response client for the shot service.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects with the given I/O timeout applied to reads and writes
    /// (`None` = block forever).
    ///
    /// # Errors
    ///
    /// Propagates connection and socket-option errors.
    pub fn connect<A: ToSocketAddrs>(addr: A, timeout: Option<Duration>) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        Ok(Client { stream })
    }

    /// Sends one request and waits for its response.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` when the daemon hangs up mid-exchange (e.g. it
    /// was killed), `InvalidData` for malformed responses, otherwise
    /// the underlying socket error.
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        send_line(&mut self.stream, &request.encode())?;
        match recv_line(&mut self.stream)? {
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon hung up before responding",
            )),
            Some(line) => Response::parse(&line)
                .map_err(|reason| io::Error::new(io::ErrorKind::InvalidData, reason)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobKind;

    fn specs() -> Vec<JobSpec> {
        vec![
            JobSpec {
                id: "ler-1".to_owned(),
                deadline_ms: Some(2000),
                kind: JobKind::Ler {
                    per: 0.005,
                    kind: qpdo_surface17::experiment::LogicalErrorKind::ZL,
                    with_pf: true,
                    target: 3,
                    max_windows: 1000,
                },
            },
            JobSpec {
                id: "bell-1".to_owned(),
                deadline_ms: None,
                kind: JobKind::Bell { shots: 4 },
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        let mut requests: Vec<Request> = specs().into_iter().map(Request::Submit).collect();
        requests.push(Request::Query("ler-1".to_owned()));
        requests.push(Request::Progress("ler-1".to_owned()));
        requests.push(Request::Health);
        requests.push(Request::Drain);
        for request in requests {
            let line = request.encode();
            assert_eq!(Request::parse(&line), Ok(request), "{line}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let snapshot = HealthSnapshot {
            accepting: false,
            queued: 3,
            running: 2,
            accepted: 17,
            completed: 11,
            failed: 1,
            shed: 4,
            duplicates: 2,
            partials: 3,
            batches: 417,
            checkpointing: false,
        };
        let responses = vec![
            Response::Accepted("a".to_owned()),
            Response::Duplicate("a".to_owned()),
            Response::rejected(
                RejectCode::Overloaded,
                "admission queue full (8 jobs queued)",
            ),
            Response::rejected(RejectCode::Busy, ""),
            Response::State("a".to_owned(), JobState::Queued),
            Response::State("a".to_owned(), JobState::Running),
            Response::State("a".to_owned(), JobState::Done("1 2 3 4".to_owned())),
            Response::State(
                "a".to_owned(),
                JobState::Failed("deadline exceeded".to_owned()),
            ),
            Response::State(
                "a".to_owned(),
                JobState::Partial("1024 20000 13 0.0069 0.0215".to_owned()),
            ),
            Response::Progress {
                id: "a".to_owned(),
                batches: 16,
                shots: 1024,
                failures: 13,
            },
            Response::Health(Box::new(snapshot)),
            Response::Drained,
        ];
        for response in responses {
            let line = response.encode();
            assert_eq!(Response::parse(&line), Ok(response), "{line}");
        }
    }

    #[test]
    fn reject_codes_round_trip_and_legacy_text_parses_as_other() {
        for code in [
            RejectCode::Busy,
            RejectCode::Overloaded,
            RejectCode::Draining,
            RejectCode::Journal,
            RejectCode::Degraded,
            RejectCode::Pruned,
            RejectCode::UnknownJob,
            RejectCode::Malformed,
            RejectCode::Unavailable,
            RejectCode::Other,
        ] {
            assert_eq!(RejectCode::parse(code.name()), Some(code));
            let response = Response::rejected(code, "some detail text");
            assert_eq!(Response::parse(&response.encode()), Ok(response));
        }
        // A free-text rejection from a peer predating codes stays
        // readable and classifies conservatively.
        assert_eq!(
            Response::parse("rejected something went wrong"),
            Ok(Response::rejected(
                RejectCode::Other,
                "something went wrong"
            ))
        );
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Request::parse("").is_err());
        assert!(Request::parse("submit").is_err());
        assert!(Request::parse("submit id - teleport 1").is_err());
        assert!(Request::parse("frobnicate").is_err());
        assert!(Request::parse("progress").is_err());
        assert!(Response::parse("").is_err());
        assert!(Response::parse("health nonsense").is_err());
        assert!(Response::parse("state id dancing").is_err());
        assert!(Response::parse("progress id 1 2 x").is_err());
        assert!(Response::parse("health ok checkpoint=maybe").is_err());
    }

    #[test]
    fn health_skips_unknown_keys_but_not_bad_known_values() {
        // A newer daemon's extra key, in any position, is skipped.
        let Ok(Response::Health(snapshot)) =
            Response::parse("health ok queued=3 backend_trips=2 running=1 zz=")
        else {
            panic!("an unknown health key was not skipped");
        };
        assert!(snapshot.accepting);
        assert_eq!((snapshot.queued, snapshot.running), (3, 1));
        // A known key keeps its value check, and a field stays key=value.
        assert!(Response::parse("health ok queued=three").is_err());
        assert!(Response::parse("health ok queued=-1").is_err());
        assert!(Response::parse("health ok backend_trips").is_err());
    }

    #[test]
    fn framed_lines_survive_a_byte_stream() {
        let mut buffer = Vec::new();
        send_line(&mut buffer, "health").unwrap();
        send_line(&mut buffer, "query job-1").unwrap();
        let mut cursor = std::io::Cursor::new(buffer);
        assert_eq!(recv_line(&mut cursor).unwrap().as_deref(), Some("health"));
        assert_eq!(
            recv_line(&mut cursor).unwrap().as_deref(),
            Some("query job-1")
        );
        assert_eq!(recv_line(&mut cursor).unwrap(), None);
    }
}
