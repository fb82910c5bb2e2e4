//! The router's binding journal (`DESIGN.md` §11.3): the router's
//! [`Record`] codec for the shared [`qpdo_core::journal`], the same
//! journal the daemon WAL uses.
//!
//! Fleet-wide exactly-once rests on one fact: **at any instant, at most
//! one daemon may hold a given job id in its own journal.** The router
//! enforces it by journaling every routing decision *before* acting on
//! it:
//!
//! - `member <name> <addr>` / `left <name>` — fleet membership. A
//!   rejoin under the same name updates the address in place.
//! - `route <id> <member> <deadline|-> <kind…>` — the binding, written
//!   (and fsync'd) before the submit is forwarded to the member. A
//!   later `route` for the same id is a *rebind*, legal only while the
//!   previous member definitively never journaled the job.
//! - `sent <id>` — a delivery attempt is about to transmit on an open
//!   connection to the bound member. From here the attempt is
//!   *ambiguous* until the member answers: a rebind is legal only on
//!   the member's explicit refusal (which proves the job is not in its
//!   WAL — daemons dedup-check before rejecting), never on a mere
//!   connection failure, which cannot distinguish "never arrived" from
//!   "arrived, then the member died".
//! - `unroute <id>` — the binding was abandoned after definitive
//!   non-delivery everywhere; the id is fresh again.
//! - `acked <id>` — the bound member acknowledged the submit, i.e. the
//!   job is in that member's WAL. From here the binding is sticky.
//! - `done <id> <record…>` / `failed <id> <error…>` /
//!   `partial <id> <detail…>` — the terminal outcome relayed from the
//!   member, cached so clients can query the router even after the
//!   member prunes or leaves.
//!
//! After a router crash, replaying the journal yields every bound job
//! with its member and state: non-terminal jobs ([`State::pending`])
//! are *orphans* that the resolver re-resolves against their bound
//! member — resubmission by job id is idempotent on the daemon side, so
//! an orphan is finished exactly once, never double-executed.
//!
//! Segments are `router-<seq>.log`. Compaction carries the members,
//! then each job as its `route` plus the `sent`/`acked`/terminal
//! records its state implies. A pruned id is never reopened, so a
//! resubmission long after compaction is refused deterministically
//! instead of silently re-hashed onto a possibly different member.

use std::io;
use std::path::Path;

use qpdo_core::journal::{self, Journal, Record, State};
use qpdo_serve::job::JobSpec;
use qpdo_serve::wal::JobOutcome;

/// The router's binding journal.
pub type RouterJournal = Journal<RouterRecord>;

/// What a router journal replay found. Its `extra` field holds the
/// fleet members in join order, as `(name, addr)`.
pub type RouterRecovery = State<RouterRecord>;

/// Replays every segment in `dir` without modifying anything — the
/// read-only audit path (`router_chaos` uses it to cross-check the
/// bindings against the daemon journals after a drill).
///
/// # Errors
///
/// Propagates I/O errors; torn tails are tolerated, not errors.
pub fn recover(dir: &Path) -> io::Result<RouterRecovery> {
    journal::recover(dir)
}

/// Where a routed job stands, as reconstructed from the journal.
#[derive(Clone, Debug, PartialEq)]
pub enum RouteState {
    /// Bound to a member; no delivery attempt has transmitted yet.
    Routed,
    /// A delivery attempt transmitted to the bound member with an
    /// unknown outcome: rebinding now requires the member's explicit
    /// refusal as proof of non-delivery.
    Sent,
    /// The bound member journaled the job: the binding is sticky.
    Acked,
    /// Terminal outcome relayed from the bound member.
    Terminal(JobOutcome),
}

impl RouteState {
    /// Whether the job reached a terminal outcome.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(self, RouteState::Terminal(_))
    }

    /// Whether the bound member may not hold the job yet, so the
    /// binding may still be rebound or abandoned.
    fn is_unconfirmed(&self) -> bool {
        matches!(self, RouteState::Routed | RouteState::Sent)
    }
}

/// One record in the router journal.
#[derive(Clone, Debug, PartialEq)]
pub enum RouterRecord {
    /// A member joined (or rejoined with a new address).
    Member {
        /// The member's stable fleet name (the ring key).
        name: String,
        /// The member's current `host:port` address.
        addr: String,
    },
    /// A member left the fleet.
    Left {
        /// The member's name.
        name: String,
    },
    /// A job was bound to a member (written before forwarding).
    Route {
        /// The full job spec (needed to resubmit after a restart).
        spec: JobSpec,
        /// The bound member's name.
        member: String,
    },
    /// A delivery attempt is about to transmit to the bound member.
    Sent {
        /// The job id.
        id: String,
    },
    /// A binding was abandoned after definitive non-delivery.
    Unroute {
        /// The job id, fresh again after this record.
        id: String,
    },
    /// The bound member acknowledged the submit.
    Acked {
        /// The job id.
        id: String,
    },
    /// The job's terminal outcome, relayed from the bound member.
    Terminal {
        /// The job id.
        id: String,
        /// The outcome.
        outcome: JobOutcome,
    },
}

impl Record for RouterRecord {
    type Job = BoundJob;
    /// Fleet members in join order: `(name, addr)`.
    type Extra = Vec<(String, String)>;
    const SEGMENT_PREFIX: &'static str = "router";

    fn encode(&self) -> String {
        match self {
            RouterRecord::Member { name, addr } => format!("member {name} {addr}"),
            RouterRecord::Left { name } => format!("left {name}"),
            RouterRecord::Route { spec, member } => {
                format!("route {} {member} {}", spec.id, spec.encode_tail())
            }
            RouterRecord::Sent { id } => format!("sent {id}"),
            RouterRecord::Unroute { id } => format!("unroute {id}"),
            RouterRecord::Acked { id } => format!("acked {id}"),
            RouterRecord::Terminal { id, outcome } => outcome.line(id),
        }
    }

    fn parse(line: &str) -> Result<Self, String> {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens.as_slice() {
            ["member", name, addr] => Ok(RouterRecord::Member {
                name: (*name).to_owned(),
                addr: (*addr).to_owned(),
            }),
            ["left", name] => Ok(RouterRecord::Left {
                name: (*name).to_owned(),
            }),
            ["route", id, member, tail @ ..] => {
                let mut spec_tokens = vec![*id];
                spec_tokens.extend_from_slice(tail);
                Ok(RouterRecord::Route {
                    spec: JobSpec::parse(&spec_tokens)?,
                    member: (*member).to_owned(),
                })
            }
            ["sent", id] => Ok(RouterRecord::Sent {
                id: (*id).to_owned(),
            }),
            ["unroute", id] => Ok(RouterRecord::Unroute {
                id: (*id).to_owned(),
            }),
            ["acked", id] => Ok(RouterRecord::Acked {
                id: (*id).to_owned(),
            }),
            _ => match JobOutcome::parse_line(&tokens) {
                Some((id, outcome)) => Ok(RouterRecord::Terminal { id, outcome }),
                None => Err(format!("unknown router journal record {line:?}")),
            },
        }
    }

    fn validate(&self, state: &RouterRecovery) -> Result<(), String> {
        let state_of = |id: &str| state.job(id).map(|job| &job.state);
        let is_member = |name: &str| state.extra.iter().any(|(n, _)| n == name);
        match self {
            RouterRecord::Member { name, addr } => {
                validate_member_name(name)?;
                if addr.is_empty() || addr.contains(|c: char| c.is_whitespace() || c == ',') {
                    return Err(format!("malformed member addr {addr:?}"));
                }
                Ok(())
            }
            RouterRecord::Left { name } if is_member(name) => Ok(()),
            RouterRecord::Left { name } => Err(format!("left for unknown member {name:?}")),
            RouterRecord::Route { member, .. } if !is_member(member) => {
                Err(format!("route to unknown member {member:?}"))
            }
            RouterRecord::Route { spec, .. } => match state_of(&spec.id) {
                None => state.refuse_pruned(&spec.id),
                Some(route) if route.is_unconfirmed() => Ok(()),
                Some(route) => Err(format!(
                    "rebind of job {:?} after the binding went sticky ({route:?})",
                    spec.id
                )),
            },
            RouterRecord::Sent { id } => match state_of(id) {
                Some(route) if route.is_unconfirmed() => Ok(()),
                Some(_) => Err(format!("sent for already-confirmed job {id:?}")),
                None => Err(format!("sent for unknown job {id:?}")),
            },
            RouterRecord::Unroute { id } => match state_of(id) {
                Some(route) if route.is_unconfirmed() => Ok(()),
                Some(_) => Err(format!(
                    "unroute of job {id:?} after the binding went sticky"
                )),
                None => Err(format!("unroute for unknown job {id:?}")),
            },
            RouterRecord::Acked { id } => match state_of(id) {
                Some(route) if !route.is_terminal() => Ok(()),
                Some(_) => Err(format!("acked for already-terminal job {id:?}")),
                None => Err(format!("acked for unknown job {id:?}")),
            },
            RouterRecord::Terminal { id, outcome } => match state_of(id) {
                // A retried append of the identical terminal is
                // absorbed, exactly like the daemon WAL.
                Some(RouteState::Terminal(existing)) if existing != outcome => Err(format!(
                    "conflicting terminal record for job {id:?} (exactly-once violation)"
                )),
                Some(_) => Ok(()),
                None => Err(format!("terminal for unknown job {id:?}")),
            },
        }
    }

    fn fold(&self, state: &mut RouterRecovery) {
        match self {
            RouterRecord::Member { name, addr } => {
                match state.extra.iter_mut().find(|(n, _)| n == name) {
                    Some((_, a)) => a.clone_from(addr),
                    None => state.extra.push((name.clone(), addr.clone())),
                }
            }
            RouterRecord::Left { name } => {
                if state.extra.iter().any(|(n, _)| n == name) {
                    state.extra.retain(|(n, _)| n != name);
                } else {
                    state.orphaned.push(format!("left:{name}"));
                }
            }
            RouterRecord::Route { spec, member } => match state.job_mut(&spec.id) {
                // A rebind supersedes the old binding and resets
                // delivery (it is only journaled while the previous
                // member definitively never journaled the job).
                Some(job) if job.state.is_unconfirmed() => {
                    job.member.clone_from(member);
                    job.state = RouteState::Routed;
                }
                Some(_) => state.orphaned.push(format!("rebind-sticky:{}", spec.id)),
                None => state.insert(BoundJob {
                    spec: spec.clone(),
                    member: member.clone(),
                    state: RouteState::Routed,
                }),
            },
            RouterRecord::Sent { id } => match state.job_mut(id) {
                Some(job) if job.state.is_unconfirmed() => job.state = RouteState::Sent,
                Some(_) => state.orphaned.push(format!("sent-after-sticky:{id}")),
                None => state.orphaned.push(format!("sent:{id}")),
            },
            RouterRecord::Unroute { id } => match state.job(id) {
                Some(job) if job.state.is_unconfirmed() => {
                    state.remove(id);
                }
                Some(_) => state.orphaned.push(format!("unroute-sticky:{id}")),
                None => state.orphaned.push(format!("unroute:{id}")),
            },
            RouterRecord::Acked { id } => match state.job_mut(id) {
                Some(job) if job.state.is_unconfirmed() => job.state = RouteState::Acked,
                Some(_) => {}
                None => state.orphaned.push(format!("acked:{id}")),
            },
            RouterRecord::Terminal { id, outcome } => match state.job_mut(id) {
                Some(BoundJob {
                    state: RouteState::Terminal(existing),
                    ..
                }) if existing == outcome => {}
                Some(BoundJob {
                    state: RouteState::Terminal(_),
                    ..
                }) => state.duplicate_terminals.push(id.clone()),
                Some(job) => job.state = RouteState::Terminal(outcome.clone()),
                None => state.orphaned.push(format!("terminal:{id}")),
            },
        }
    }

    fn job_id(job: &BoundJob) -> &str {
        &job.spec.id
    }

    fn is_terminal(job: &BoundJob) -> bool {
        job.state.is_terminal()
    }

    fn snapshot(state: &RouterRecovery) -> Vec<Self> {
        let mut records: Vec<Self> = state
            .extra
            .iter()
            .map(|(name, addr)| RouterRecord::Member {
                name: name.clone(),
                addr: addr.clone(),
            })
            .collect();
        for job in state.jobs() {
            let id = || job.spec.id.clone();
            records.push(RouterRecord::Route {
                spec: job.spec.clone(),
                member: job.member.clone(),
            });
            match &job.state {
                RouteState::Routed => {}
                RouteState::Sent => records.push(RouterRecord::Sent { id: id() }),
                RouteState::Acked => records.push(RouterRecord::Acked { id: id() }),
                RouteState::Terminal(outcome) => {
                    records.push(RouterRecord::Acked { id: id() });
                    records.push(RouterRecord::Terminal {
                        id: id(),
                        outcome: outcome.clone(),
                    });
                }
            }
        }
        records
    }
}

/// Validates a candidate member name (a ring key and wire token).
///
/// # Errors
///
/// Returns a human-readable reason for empty, oversized, or
/// delimiter-containing names.
pub fn validate_member_name(name: &str) -> Result<(), String> {
    if name.is_empty() {
        return Err("member name must not be empty".to_owned());
    }
    if name.len() > 64 {
        return Err("member name longer than 64 bytes".to_owned());
    }
    if name.contains(|c: char| c.is_whitespace() || c == ',' || c == ':') {
        return Err("member name must not contain whitespace, commas, or colons".to_owned());
    }
    Ok(())
}

/// One bound job as reconstructed from the journal.
#[derive(Clone, Debug, PartialEq)]
pub struct BoundJob {
    /// The accepted spec.
    pub spec: JobSpec,
    /// The bound member's name.
    pub member: String,
    /// Where delivery stands.
    pub state: RouteState,
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpdo_core::journal::read_records;
    use qpdo_serve::job::JobKind;
    use std::fs::File;
    use std::io::BufReader;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qpdo-router-j-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec(id: &str) -> JobSpec {
        JobSpec {
            id: id.to_owned(),
            deadline_ms: None,
            kind: JobKind::Bell { shots: 2 },
        }
    }

    fn member(name: &str, addr: &str) -> RouterRecord {
        RouterRecord::Member {
            name: name.to_owned(),
            addr: addr.to_owned(),
        }
    }

    fn route(id: &str, to: &str) -> RouterRecord {
        RouterRecord::Route {
            spec: spec(id),
            member: to.to_owned(),
        }
    }

    #[test]
    fn record_encoding_round_trips() {
        let records = vec![
            member("d0", "127.0.0.1:4100"),
            RouterRecord::Left {
                name: "d0".to_owned(),
            },
            route("j1", "d0"),
            RouterRecord::Sent {
                id: "j1".to_owned(),
            },
            RouterRecord::Unroute {
                id: "j1".to_owned(),
            },
            RouterRecord::Acked {
                id: "j1".to_owned(),
            },
            RouterRecord::Terminal {
                id: "j1".to_owned(),
                outcome: JobOutcome::Done("1 2 3 4".to_owned()),
            },
            RouterRecord::Terminal {
                id: "j2".to_owned(),
                outcome: JobOutcome::Failed("deadline exceeded".to_owned()),
            },
            RouterRecord::Terminal {
                id: "j3".to_owned(),
                outcome: JobOutcome::Partial("128 4096 3 0.000244 0.002135".to_owned()),
            },
        ];
        for record in records {
            let line = record.encode();
            assert_eq!(RouterRecord::parse(&line), Ok(record), "{line}");
        }
    }

    #[test]
    fn journal_survives_reopen_with_exact_state() {
        let dir = tmp_dir("reopen");
        {
            let (mut j, recovery) = RouterJournal::open(&dir, 1 << 20).unwrap();
            assert!(recovery.jobs().is_empty());
            j.append(&member("d0", "127.0.0.1:4100")).unwrap();
            j.append(&member("d1", "127.0.0.1:4101")).unwrap();
            j.append(&route("a", "d0")).unwrap();
            j.append(&route("b", "d1")).unwrap();
            j.append(&RouterRecord::Acked { id: "a".to_owned() })
                .unwrap();
            j.append(&RouterRecord::Terminal {
                id: "a".to_owned(),
                outcome: JobOutcome::Done("0 1 1 0".to_owned()),
            })
            .unwrap();
            j.append(&route("c", "d0")).unwrap();
            j.append(&RouterRecord::Sent { id: "c".to_owned() })
                .unwrap();
            // d1 rejoins on a new address.
            j.append(&member("d1", "127.0.0.1:4201")).unwrap();
        }
        let (_, recovery) = RouterJournal::open(&dir, 1 << 20).unwrap();
        assert!(recovery.is_consistent());
        assert_eq!(
            recovery.extra,
            vec![
                ("d0".to_owned(), "127.0.0.1:4100".to_owned()),
                ("d1".to_owned(), "127.0.0.1:4201".to_owned()),
            ]
        );
        assert_eq!(recovery.jobs().len(), 3);
        assert_eq!(
            recovery.jobs()[0].state,
            RouteState::Terminal(JobOutcome::Done("0 1 1 0".to_owned()))
        );
        assert_eq!(recovery.jobs()[1].state, RouteState::Routed);
        assert_eq!(recovery.jobs()[2].state, RouteState::Sent);
        assert_eq!(recovery.pending().len(), 2);
        assert_eq!(recovery.pending()[0].spec.id, "b");
        assert_eq!(recovery.pending()[0].member, "d1");
        assert_eq!(recovery.pending()[1].spec.id, "c");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rebind_is_legal_only_before_the_binding_goes_sticky() {
        let dir = tmp_dir("rebind");
        let (mut j, _) = RouterJournal::open(&dir, 1 << 20).unwrap();
        j.append(&member("d0", "a:1")).unwrap();
        j.append(&member("d1", "a:2")).unwrap();
        j.append(&route("x", "d0")).unwrap();
        // Definitive non-delivery: rebinding a routed job is legal.
        j.append(&route("x", "d1")).unwrap();
        // Transmission attempted: rebind stays legal only because the
        // router asserts the member explicitly refused.
        j.append(&RouterRecord::Sent { id: "x".to_owned() })
            .unwrap();
        j.append(&route("x", "d0")).unwrap();
        j.append(&RouterRecord::Sent { id: "x".to_owned() })
            .unwrap();
        j.append(&RouterRecord::Acked { id: "x".to_owned() })
            .unwrap();
        // Sticky: the member journaled the job; a rebind now could
        // double-execute, so the journal refuses it.
        let err = j.append(&route("x", "d1")).unwrap_err();
        assert!(err.to_string().contains("sticky"), "{err}");
        let err = j
            .append(&RouterRecord::Unroute { id: "x".to_owned() })
            .unwrap_err();
        assert!(err.to_string().contains("sticky"), "{err}");
        assert!(j
            .append(&RouterRecord::Sent { id: "x".to_owned() })
            .is_err());
        let recovery = recover(&dir).unwrap();
        assert!(recovery.is_consistent());
        assert_eq!(recovery.jobs()[0].member, "d0");
        assert_eq!(recovery.jobs()[0].state, RouteState::Acked);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unroute_makes_an_id_fresh_again() {
        let dir = tmp_dir("unroute");
        let (mut j, _) = RouterJournal::open(&dir, 1 << 20).unwrap();
        j.append(&member("d0", "a:1")).unwrap();
        j.append(&route("x", "d0")).unwrap();
        // Unroute is legal from `sent` too: it is only journaled after
        // every candidate explicitly refused the job.
        j.append(&RouterRecord::Sent { id: "x".to_owned() })
            .unwrap();
        j.append(&RouterRecord::Unroute { id: "x".to_owned() })
            .unwrap();
        // The id is fresh: a new route is a new binding, not a rebind.
        j.append(&route("x", "d0")).unwrap();
        let recovery = recover(&dir).unwrap();
        assert!(recovery.is_consistent());
        assert_eq!(recovery.jobs().len(), 1);
        assert_eq!(recovery.jobs()[0].state, RouteState::Routed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn terminal_conflicts_are_refused_and_flagged() {
        let dir = tmp_dir("conflict");
        let (mut j, _) = RouterJournal::open(&dir, 1 << 20).unwrap();
        j.append(&member("d0", "a:1")).unwrap();
        j.append(&route("x", "d0")).unwrap();
        let done = RouterRecord::Terminal {
            id: "x".to_owned(),
            outcome: JobOutcome::Done("1".to_owned()),
        };
        j.append(&done).unwrap();
        // Identical retried append: absorbed.
        j.append(&done).unwrap();
        // Conflicting outcome: refused.
        assert!(j
            .append(&RouterRecord::Terminal {
                id: "x".to_owned(),
                outcome: JobOutcome::Failed("boom".to_owned()),
            })
            .is_err());
        // Orphan records are refused too.
        assert!(j
            .append(&RouterRecord::Acked {
                id: "ghost".to_owned()
            })
            .is_err());
        assert!(j.append(&route("y", "nobody")).is_err());
        let recovery = recover(&dir).unwrap();
        assert!(recovery.is_consistent());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn member_names_are_validated() {
        let dir = tmp_dir("names");
        let (mut j, _) = RouterJournal::open(&dir, 1 << 20).unwrap();
        assert!(j.append(&member("has space", "a:1")).is_err());
        assert!(j.append(&member("has:colon", "a:1")).is_err());
        assert!(j.append(&member("", "a:1")).is_err());
        assert!(j.append(&member("ok-name", "bad addr")).is_err());
        assert!(j.append(&member("ok-name", "a:1")).is_ok());
        assert!(validate_member_name("d0").is_ok());
        assert!(validate_member_name("a,b").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compacted_segment_lines_are_stable() {
        // Pins the on-disk snapshot format: marker, sorted pruned-id
        // ledger, members, then each retained binding as its route plus
        // the delivery records its state implies.
        let dir = tmp_dir("golden");
        {
            let (mut j, _) = RouterJournal::open_retaining(&dir, 64, 1).unwrap();
            let done = |id: &str| RouterRecord::Terminal {
                id: id.to_owned(),
                outcome: JobOutcome::Done("0 1".to_owned()),
            };
            let acked = |id: &str| RouterRecord::Acked { id: id.to_owned() };
            for record in [
                member("d0", "127.0.0.1:4100"),
                member("d1", "127.0.0.1:4101"),
                route("p-0", "d0"),
                acked("p-0"),
                done("p-0"),
                route("p-1", "d1"),
                acked("p-1"),
                done("p-1"),
                route("gone", "d0"),
                RouterRecord::Unroute {
                    id: "gone".to_owned(),
                },
                route("s", "d1"),
                RouterRecord::Sent { id: "s".to_owned() },
                route("r", "d0"),
                route("k", "d0"),
                acked("k"),
                route("f", "d1"),
                acked("f"),
                done("f"),
                RouterRecord::Left {
                    name: "d0".to_owned(),
                },
                member("d2", "127.0.0.1:4102"),
            ] {
                j.append(&record).unwrap();
            }
        }
        let (j, _) = RouterJournal::open(&dir, 64).unwrap();
        let path = dir.join(format!("router-{:08}.log", j.active_seq()));
        let lines: Vec<String> = read_records(&mut BufReader::new(File::open(path).unwrap()))
            .unwrap()
            .into_iter()
            .map(|payload| String::from_utf8(payload).unwrap())
            .collect();
        assert_eq!(
            lines,
            [
                "snapshot",
                "pruned 2 787b2419570ce662 787b2519570ce815",
                "member d1 127.0.0.1:4101",
                "member d2 127.0.0.1:4102",
                "route s d1 - bell 2",
                "sent s",
                "route r d0 - bell 2",
                "route k d0 - bell 2",
                "acked k",
                "route f d1 - bell 2",
                "acked f",
                "done f 0 1",
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
