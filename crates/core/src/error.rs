use std::fmt;

use qpdo_circuit::Gate;

use crate::fault::ClassicalFaultKind;

/// Errors produced by control stacks and simulation cores.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoreError {
    /// The back-end cannot execute this gate (e.g. `T` on a stabilizer
    /// core).
    UnsupportedGate(Gate),
    /// An operation referenced a qubit outside the allocated register.
    QubitOutOfRange {
        /// The offending qubit index.
        qubit: usize,
        /// The number of allocated qubits.
        allocated: usize,
    },
    /// No qubits have been allocated yet.
    NoQubits,
    /// The back-end cannot produce the requested quantum-state dump.
    QuantumStateUnavailable,
    /// Qubit deallocation was requested in an unsupported form.
    UnsupportedDeallocation(String),
    /// The requested register exceeds the back-end's capacity.
    RegisterTooLarge {
        /// Total qubits requested.
        requested: usize,
        /// The back-end's maximum.
        maximum: usize,
    },
    /// A classical-control fault was detected by a protection mechanism
    /// (parity scrub, sequence-numbered result channel, …).
    ClassicalFault {
        /// The fault class that was detected.
        kind: ClassicalFaultKind,
        /// The physical qubit whose classical record or result was
        /// affected, when attributable.
        qubit: Option<usize>,
    },
    /// The classical control exceeded its real-time budget for a time
    /// slot and had to fall back to flushing the frame as gates.
    DeadlineMissed {
        /// Classical work units attempted in the slot.
        used: u64,
        /// The configured per-slot budget.
        budget: u64,
    },
    /// A probability parameter was outside `[0, 1]`. The value is kept
    /// as text so the error type stays `Eq`.
    InvalidProbability {
        /// The offending value, formatted.
        value: String,
        /// What the probability parameterized.
        context: &'static str,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnsupportedGate(g) => {
                write!(f, "back-end does not support the {g} gate")
            }
            CoreError::QubitOutOfRange { qubit, allocated } => {
                write!(f, "qubit {qubit} out of range ({allocated} allocated)")
            }
            CoreError::NoQubits => write!(f, "no qubits allocated"),
            CoreError::QuantumStateUnavailable => {
                write!(f, "back-end cannot report a quantum state")
            }
            CoreError::UnsupportedDeallocation(msg) => {
                write!(f, "unsupported deallocation: {msg}")
            }
            CoreError::RegisterTooLarge { requested, maximum } => {
                write!(
                    f,
                    "requested {requested} qubits, back-end maximum is {maximum}"
                )
            }
            CoreError::ClassicalFault { kind, qubit } => match qubit {
                Some(q) => write!(f, "classical fault ({kind}) on qubit {q}"),
                None => write!(f, "classical fault ({kind})"),
            },
            CoreError::DeadlineMissed { used, budget } => {
                write!(
                    f,
                    "real-time deadline missed: {used} classical work units in a slot budgeted for {budget}"
                )
            }
            CoreError::InvalidProbability { value, context } => {
                write!(f, "invalid {context} {value}: must be in [0, 1]")
            }
        }
    }
}

impl std::error::Error for CoreError {}

/// Errors produced while executing a shot batch under supervision.
///
/// A *shot batch* is the unit of work of the supervised execution engine
/// (`qpdo_bench::supervisor`) and of the batched LER drivers: a
/// contiguous run of shots/windows with its own deterministic RNG
/// substream, so the counters over a prefix of completed batches (a
/// [`Checkpoint`]) fully determine the rest of a sweep. Batches fail in
/// ways an individual stack operation cannot — a worker panic, a
/// watchdog timeout, a dead worker pool, or a cross-backend
/// disagreement — so those outcomes get their own error type, with
/// [`CoreError`] embedded for the ordinary stack-level failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShotError {
    /// The batch failed inside the control stack.
    Core(CoreError),
    /// The batch panicked; the payload is the captured panic message.
    Panic(String),
    /// The batch exceeded its watchdog deadline and was declared hung.
    Timeout {
        /// The configured watchdog budget, in milliseconds.
        budget_ms: u64,
    },
    /// The worker pool itself failed (e.g. threads could not be spawned).
    PoolFailure(String),
    /// Redundant cross-backend execution disagreed on the outcome.
    Divergence {
        /// Human-readable description of the first disagreement.
        detail: String,
    },
    /// The serving layer refused admission: its bounded queue is full
    /// and the job was shed instead of buffered without bound.
    Overloaded {
        /// The admission-queue depth that was already in use.
        queue_depth: usize,
    },
    /// The job was cancelled cooperatively — its deadline passed, a
    /// client withdrew it, or the service is draining for shutdown.
    Cancelled {
        /// Why the job was cancelled.
        reason: String,
    },
    /// Every eligible backend's circuit breaker is open: the job cannot
    /// be routed anywhere until a half-open probe restores a backend.
    BreakerOpen {
        /// The backends that were tried, comma-separated.
        backends: String,
    },
}

/// A durable position inside a batched sweep: how many whole batches
/// completed and the counters accumulated over exactly those batches.
///
/// The batched LER drivers report one after every completed batch and
/// resume from one; the serving journal persists them. The first three
/// counters are common to every checkpointed kind; the kind-specific
/// remainder (`ler_surface`: defects; `ler_sliced`: the ten `LerOutcome`
/// fields) rides in `counters`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Checkpoint {
    /// Completed whole batches.
    pub batches: u64,
    /// Shots (or windows) counted over those batches.
    pub shots: u64,
    /// Failures among those shots.
    pub failures: u64,
    /// Kind-specific extra counters, replayed verbatim.
    pub counters: Vec<u64>,
}

impl Checkpoint {
    /// Semantic plausibility, enforced at replay rather than append so
    /// that CRC-valid but corrupt records (torn page, bit rot, injected
    /// corruption) are *dropped* — falling back to the previous
    /// checkpoint — instead of poisoning recovery. Both checkpointed
    /// kinds are 64-lane sweeps, so a batch never yields more than 64
    /// shots, and failures can never exceed shots.
    #[must_use]
    pub fn plausible(&self) -> bool {
        self.batches > 0
            && self.shots > 0
            && self.shots <= self.batches.saturating_mul(64)
            && self.failures <= self.shots
    }
}

impl From<CoreError> for ShotError {
    fn from(e: CoreError) -> Self {
        ShotError::Core(e)
    }
}

impl fmt::Display for ShotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShotError::Core(e) => write!(f, "stack error: {e}"),
            ShotError::Panic(msg) => write!(f, "worker panic: {msg}"),
            ShotError::Timeout { budget_ms } => {
                write!(f, "watchdog timeout: batch exceeded {budget_ms} ms")
            }
            ShotError::PoolFailure(msg) => write!(f, "worker pool failure: {msg}"),
            ShotError::Divergence { detail } => {
                write!(f, "cross-backend divergence: {detail}")
            }
            ShotError::Overloaded { queue_depth } => {
                write!(
                    f,
                    "overloaded: admission queue full ({queue_depth} jobs queued)"
                )
            }
            ShotError::Cancelled { reason } => write!(f, "cancelled: {reason}"),
            ShotError::BreakerOpen { backends } => {
                write!(f, "circuit breaker open for every backend ({backends})")
            }
        }
    }
}

impl std::error::Error for ShotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShotError::Core(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            CoreError::UnsupportedGate(Gate::T).to_string(),
            "back-end does not support the t gate"
        );
        assert!(CoreError::QubitOutOfRange {
            qubit: 9,
            allocated: 4
        }
        .to_string()
        .contains("qubit 9"));
        assert!(!CoreError::NoQubits.to_string().is_empty());
    }

    #[test]
    fn classical_fault_messages() {
        let e = CoreError::ClassicalFault {
            kind: ClassicalFaultKind::FrameBitFlip,
            qubit: Some(3),
        };
        assert!(e.to_string().contains("qubit 3"));
        let e = CoreError::ClassicalFault {
            kind: ClassicalFaultKind::ResultDrop,
            qubit: None,
        };
        assert!(e.to_string().contains("classical fault"));
        let e = CoreError::DeadlineMissed { used: 3, budget: 0 };
        assert!(e.to_string().contains("deadline"));
        let e = CoreError::InvalidProbability {
            value: "1.5".to_owned(),
            context: "physical error rate",
        };
        assert!(e.to_string().contains("error rate"));
        assert!(e.to_string().contains("1.5"));
    }

    #[test]
    fn shot_error_messages_and_conversion() {
        let e: ShotError = CoreError::NoQubits.into();
        assert_eq!(e, ShotError::Core(CoreError::NoQubits));
        assert!(e.to_string().contains("stack error"));
        assert!(std::error::Error::source(&e).is_some());

        let e = ShotError::Panic("boom".to_owned());
        assert!(e.to_string().contains("boom"));
        assert!(std::error::Error::source(&e).is_none());

        let e = ShotError::Timeout { budget_ms: 250 };
        assert!(e.to_string().contains("250"));

        let e = ShotError::PoolFailure("spawn failed".to_owned());
        assert!(e.to_string().contains("spawn failed"));

        let e = ShotError::Divergence {
            detail: "window 3".to_owned(),
        };
        assert!(e.to_string().contains("window 3"));
    }

    #[test]
    fn serving_error_messages() {
        let e = ShotError::Overloaded { queue_depth: 256 };
        assert!(e.to_string().contains("256"));
        assert!(e.to_string().contains("overloaded"));

        let e = ShotError::Cancelled {
            reason: "deadline passed".to_owned(),
        };
        assert!(e.to_string().contains("deadline passed"));
        assert!(std::error::Error::source(&e).is_none());

        let e = ShotError::BreakerOpen {
            backends: "packed,reference".to_owned(),
        };
        assert!(e.to_string().contains("packed,reference"));
        assert!(e.to_string().contains("breaker"));
    }
}
