//! Job kinds the shot service executes, and the backends they run on
//! (`DESIGN.md` §9.2).
//!
//! A job is described entirely by its [`JobSpec`]: a client-chosen id
//! (the idempotency key), an optional deadline, and a [`JobKind`]. The
//! payload seed derives from the daemon's base seed and the job id
//! alone ([`job_seed`]), so re-executing a job after a crash — or on a
//! different backend after a breaker trip — reproduces the result
//! byte-for-byte (the packed and reference stabilizer engines are
//! differentially verified to agree bit-exactly).

use qpdo_bench::supervisor::{round_up_to_lanes, sliced_lane_seeds, substream_seed, CancelToken};
use qpdo_core::testbench::random_circuit;
use qpdo_core::{Checkpoint, ChpCore, ControlStack, PauliFrameLayer, ShotError, SvCore};
use qpdo_rng::rngs::StdRng;
use qpdo_rng::SeedableRng;
use qpdo_stabilizer::{CliffordTableau, StabilizerSim, LANES};
use qpdo_statevector::Complex;
use qpdo_stats::wilson_interval;
use qpdo_surface::experiment::{run_ler_surface_controlled, SurfaceLerConfig};
use qpdo_surface::CheckKind;
use qpdo_surface17::experiment::{run_ler_on, LerConfig, LerOutcome, LogicalErrorKind};
use qpdo_surface17::{logical_cnot, run_ler_sliced, NinjaStar, StarLayout};

#[cfg(feature = "reference")]
use qpdo_stabilizer::ReferenceTableau;

/// The longest job id the service accepts.
pub const MAX_JOB_ID_LEN: usize = 128;

/// The most shots a single `ler_surface` job may request. Syndromes
/// come from a Pauli frame pushed through the ESM round, so a 64-shot
/// batch costs under a millisecond even at d = 13 (mostly the 64
/// union-find decodes) and a capped d = 13 job runs in about 10 s.
/// Cancellation and deadlines are polled between batches, so a job
/// stops within one batch at any size; the cap only bounds how long
/// one job holds a worker, so that fleet rebalancing stays responsive.
/// Bigger sweeps should be split across jobs.
pub const MAX_SURFACE_SHOTS: u64 = 1 << 20;

/// The largest code distance a `ler_surface` job may request — the top
/// of the distance-scaling workload (`exp_distance_scaling`).
pub const MAX_SURFACE_DISTANCE: usize = 13;

/// An execution backend a job can be routed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The word-packed production stabilizer engine.
    Packed,
    /// The cell-per-entry reference tableau (differential-oracle twin).
    Reference,
    /// The full state-vector simulator.
    Statevector,
}

impl Backend {
    /// Every backend, in health-report order.
    pub const ALL: [Backend; 3] = [Backend::Packed, Backend::Reference, Backend::Statevector];

    /// The lowercase wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Backend::Packed => "packed",
            Backend::Reference => "reference",
            Backend::Statevector => "statevector",
        }
    }

    /// Parses a wire name back into a backend.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Backend::ALL.into_iter().find(|b| b.name() == name)
    }

    /// This backend's index into per-backend state arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// What a job computes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum JobKind {
    /// One Surface-17 logical-error-rate point (the Section 5.3
    /// experiment): runs windows until `target` logical errors or
    /// `max_windows`, whichever first.
    Ler {
        /// Physical error rate of the depolarizing model.
        per: f64,
        /// Which logical error to watch for.
        kind: LogicalErrorKind,
        /// Whether the stack includes a Pauli-frame layer.
        with_pf: bool,
        /// Stop after this many logical errors.
        target: u64,
        /// Hard window cap.
        max_windows: u64,
    },
    /// A shot-sliced ensemble of Surface-17 LER trajectories: `shots`
    /// independent runs of the [`JobKind::Ler`] experiment, executed 64
    /// per pass on the lane-sliced engine (`DESIGN.md` §10). `shots`
    /// rounds up to a lane multiple at execution; the result is the
    /// executed shot count followed by the summed ten-field record.
    LerSliced {
        /// Physical error rate of the depolarizing model.
        per: f64,
        /// Which logical error to watch for.
        kind: LogicalErrorKind,
        /// Whether the stack includes a (lane-masked) Pauli frame.
        with_pf: bool,
        /// Per-trajectory stop: this many logical errors.
        target: u64,
        /// Per-trajectory hard window cap.
        max_windows: u64,
        /// Trajectories to run (rounded up to a multiple of 64).
        shots: u64,
    },
    /// One random-circuit Pauli-frame verification (Section 5.2.2):
    /// framed state-vector execution must match the reference up to
    /// global phase. The result is the classically-tracked gate count.
    RandomCircuit {
        /// Qubits in the random circuit.
        qubits: usize,
        /// Gates in the random circuit.
        gates: usize,
    },
    /// A code-capacity LER point on the generic rotated surface code
    /// (`DESIGN.md` §13): `shots` Monte-Carlo shots of Bernoulli `X`
    /// errors at rate `per`, syndromes sampled by pushing a 64-lane
    /// Pauli frame through the ESM round and decoded by the union-find
    /// decoder (exact matching below its defect limit). The result is
    /// `<shots> <failures> <defects>`.
    LerSurface {
        /// Code distance (odd, `3..=MAX_SURFACE_DISTANCE`).
        d: usize,
        /// Per-data-qubit, per-shot error probability.
        per: f64,
        /// Monte-Carlo shots (at most [`MAX_SURFACE_SHOTS`]).
        shots: u64,
    },
    /// An odd-Bell-state histogram (Section 5.2.3): logical
    /// `(|01⟩+|10⟩)/√2` on two ninja stars, measured `shots` times
    /// with a Pauli-frame layer. The result is the four ket counts.
    Bell {
        /// Shots to accumulate.
        shots: u64,
    },
}

impl JobKind {
    /// The wire/journal encoding: space-separated tokens, first token
    /// the kind tag.
    #[must_use]
    pub fn encode(&self) -> String {
        match self {
            JobKind::Ler {
                per,
                kind,
                with_pf,
                target,
                max_windows,
            } => {
                let kind = match kind {
                    LogicalErrorKind::XL => "XL",
                    LogicalErrorKind::ZL => "ZL",
                };
                format!(
                    "ler {per} {kind} {} {target} {max_windows}",
                    u8::from(*with_pf)
                )
            }
            JobKind::LerSliced {
                per,
                kind,
                with_pf,
                target,
                max_windows,
                shots,
            } => {
                let kind = match kind {
                    LogicalErrorKind::XL => "XL",
                    LogicalErrorKind::ZL => "ZL",
                };
                format!(
                    "ler_sliced {per} {kind} {} {target} {max_windows} {shots}",
                    u8::from(*with_pf)
                )
            }
            JobKind::LerSurface { d, per, shots } => format!("ler_surface {d} {per} {shots}"),
            JobKind::RandomCircuit { qubits, gates } => format!("rc {qubits} {gates}"),
            JobKind::Bell { shots } => format!("bell {shots}"),
        }
    }

    /// Parses [`encode`](Self::encode) output (already split into
    /// tokens). Returns a human-readable reason on malformed input.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed token.
    pub fn parse(tokens: &[&str]) -> Result<Self, String> {
        let bad = |what: &str| format!("malformed {what} job spec: {tokens:?}");
        match tokens {
            ["ler", per, kind, with_pf, target, max_windows] => {
                let kind = match *kind {
                    "XL" => LogicalErrorKind::XL,
                    "ZL" => LogicalErrorKind::ZL,
                    _ => return Err(bad("ler")),
                };
                let per: f64 = per.parse().map_err(|_| bad("ler"))?;
                if !(0.0..=1.0).contains(&per) {
                    return Err(format!("ler rate {per} outside [0, 1]"));
                }
                let with_pf = match *with_pf {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("ler")),
                };
                let target = target.parse().map_err(|_| bad("ler"))?;
                let max_windows: u64 = max_windows.parse().map_err(|_| bad("ler"))?;
                if target == 0 || max_windows == 0 {
                    return Err(bad("ler"));
                }
                Ok(JobKind::Ler {
                    per,
                    kind,
                    with_pf,
                    target,
                    max_windows,
                })
            }
            ["ler_sliced", per, kind, with_pf, target, max_windows, shots] => {
                let kind = match *kind {
                    "XL" => LogicalErrorKind::XL,
                    "ZL" => LogicalErrorKind::ZL,
                    _ => return Err(bad("ler_sliced")),
                };
                let per: f64 = per.parse().map_err(|_| bad("ler_sliced"))?;
                if !(0.0..=1.0).contains(&per) {
                    return Err(format!("ler_sliced rate {per} outside [0, 1]"));
                }
                let with_pf = match *with_pf {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("ler_sliced")),
                };
                let target = target.parse().map_err(|_| bad("ler_sliced"))?;
                let max_windows: u64 = max_windows.parse().map_err(|_| bad("ler_sliced"))?;
                let shots: u64 = shots.parse().map_err(|_| bad("ler_sliced"))?;
                if target == 0 || max_windows == 0 || shots == 0 {
                    return Err(bad("ler_sliced"));
                }
                Ok(JobKind::LerSliced {
                    per,
                    kind,
                    with_pf,
                    target,
                    max_windows,
                    shots,
                })
            }
            ["ler_surface", d, per, shots] => {
                let d: usize = d.parse().map_err(|_| bad("ler_surface"))?;
                if !(3..=MAX_SURFACE_DISTANCE).contains(&d) || d.is_multiple_of(2) {
                    return Err(format!(
                        "ler_surface distance {d} outside odd 3..={MAX_SURFACE_DISTANCE}"
                    ));
                }
                let per: f64 = per.parse().map_err(|_| bad("ler_surface"))?;
                if !(0.0..=1.0).contains(&per) {
                    return Err(format!("ler_surface rate {per} outside [0, 1]"));
                }
                let shots: u64 = shots.parse().map_err(|_| bad("ler_surface"))?;
                if shots == 0 || shots > MAX_SURFACE_SHOTS {
                    return Err(format!(
                        "ler_surface shots {shots} outside 1..={MAX_SURFACE_SHOTS}"
                    ));
                }
                Ok(JobKind::LerSurface { d, per, shots })
            }
            ["rc", qubits, gates] => {
                let qubits: usize = qubits.parse().map_err(|_| bad("rc"))?;
                let gates: usize = gates.parse().map_err(|_| bad("rc"))?;
                if qubits == 0 || qubits > 16 || gates == 0 {
                    return Err(bad("rc"));
                }
                Ok(JobKind::RandomCircuit { qubits, gates })
            }
            ["bell", shots] => {
                let shots: u64 = shots.parse().map_err(|_| bad("bell"))?;
                if shots == 0 {
                    return Err(bad("bell"));
                }
                Ok(JobKind::Bell { shots })
            }
            _ => Err(bad("unknown-kind")),
        }
    }

    /// Total shots (or windows) this job would complete uninterrupted —
    /// the denominator a `Partial` outcome reports its completed prefix
    /// against.
    #[must_use]
    pub fn shot_target(&self) -> u64 {
        match self {
            JobKind::Ler { max_windows, .. } => *max_windows,
            JobKind::LerSliced { shots, .. } => round_up_to_lanes(*shots),
            JobKind::LerSurface { shots, .. } | JobKind::Bell { shots } => *shots,
            JobKind::RandomCircuit { .. } => 1,
        }
    }

    /// Whether a durable [`Checkpoint`] of this kind can seed a resumed
    /// execution that is byte-identical to a scratch run. True exactly
    /// for the batch-seeded 64-lane sweeps: each batch draws from its
    /// own deterministic RNG substream, so replaying the remaining
    /// batches on top of checkpointed counters reproduces the full run.
    #[must_use]
    pub fn resumable(&self) -> bool {
        matches!(self, JobKind::LerSliced { .. } | JobKind::LerSurface { .. })
    }

    /// The backends this kind can run on, in routing-preference order.
    #[must_use]
    pub fn backend_preference(&self) -> &'static [Backend] {
        match self {
            #[cfg(feature = "reference")]
            JobKind::Ler { .. } | JobKind::Bell { .. } => &[Backend::Packed, Backend::Reference],
            #[cfg(not(feature = "reference"))]
            JobKind::Ler { .. } | JobKind::Bell { .. } => &[Backend::Packed],
            // The lane-sliced engine lives on the packed word planes
            // only; there is no reference twin to reroute to.
            JobKind::LerSliced { .. } | JobKind::LerSurface { .. } => &[Backend::Packed],
            JobKind::RandomCircuit { .. } => &[Backend::Statevector],
        }
    }
}

/// One job as accepted by the daemon.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Client-chosen id: the idempotency key. Non-empty, at most
    /// [`MAX_JOB_ID_LEN`] bytes, no whitespace or commas.
    pub id: String,
    /// Per-job deadline in milliseconds from admission (`None` = no
    /// deadline).
    pub deadline_ms: Option<u64>,
    /// What to compute.
    pub kind: JobKind,
}

impl JobSpec {
    /// Validates a candidate job id.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason for empty, oversized, or
    /// delimiter-containing ids.
    pub fn validate_id(id: &str) -> Result<(), String> {
        if id.is_empty() {
            return Err("job id must not be empty".to_owned());
        }
        if id.len() > MAX_JOB_ID_LEN {
            return Err(format!("job id longer than {MAX_JOB_ID_LEN} bytes"));
        }
        if id.contains(|c: char| c.is_whitespace() || c == ',') {
            return Err("job id must not contain whitespace or commas".to_owned());
        }
        Ok(())
    }

    /// The wire/journal tail after the id: `<deadline_ms|-> <kind...>`.
    #[must_use]
    pub fn encode_tail(&self) -> String {
        match self.deadline_ms {
            Some(ms) => format!("{ms} {}", self.kind.encode()),
            None => format!("- {}", self.kind.encode()),
        }
    }

    /// Parses `<id> <deadline_ms|-> <kind...>` tokens.
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason on malformed input.
    pub fn parse(tokens: &[&str]) -> Result<Self, String> {
        let [id, deadline, kind @ ..] = tokens else {
            return Err(format!("malformed job spec: {tokens:?}"));
        };
        Self::validate_id(id)?;
        let deadline_ms = match *deadline {
            "-" => None,
            ms => {
                let ms: u64 = ms
                    .parse()
                    .map_err(|_| format!("malformed deadline {ms:?}"))?;
                if ms == 0 {
                    return Err("deadline must be at least 1 ms".to_owned());
                }
                Some(ms)
            }
        };
        Ok(JobSpec {
            id: (*id).to_owned(),
            deadline_ms,
            kind: JobKind::parse(kind)?,
        })
    }
}

/// The deterministic payload seed for a job: the attempt-0 supervisor
/// substream keyed by the job id, exactly what the worker pool derives
/// for a batch with `point = id, batch = 0` under the stable seed
/// policy. Crash recovery and breaker rerouting both rely on this being
/// a pure function of `(base_seed, id)`.
#[must_use]
pub fn job_seed(base_seed: u64, id: &str) -> u64 {
    substream_seed(base_seed, id, 0, 0)
}

/// How a tracked execution ([`execute_tracked`]) ended.
#[derive(Clone, Debug, PartialEq)]
pub enum Execution {
    /// The job ran to completion: the whitespace-separated wire record.
    Done(String),
    /// Cooperative cancellation stopped the job early.
    Stopped {
        /// The accumulated prefix, when the kind tracks one (`None`
        /// when the cancellation landed before any progress, or the
        /// kind is atomic). For [resumable](JobKind::resumable) kinds
        /// this equals the last checkpoint reported to `on_batch`.
        checkpoint: Option<Checkpoint>,
        /// The human-readable stop reason, byte-identical to the
        /// [`ShotError::Cancelled`] message [`execute`] raises for the
        /// same stop.
        reason: String,
    },
}

/// Executes a job on a specific backend with a specific payload seed,
/// returning the whitespace-separated result record.
///
/// Records by kind: `ler` → the ten-field [`LerOutcome`] record;
/// `ler_sliced` → the executed shot count followed by the ten-field
/// sum over all trajectories; `ler_surface` → `<shots> <failures>
/// <defects>`; `rc` → the classically-tracked gate count; `bell` → the
/// four ket counts in `|00⟩ |01⟩ |10⟩ |11⟩` order.
///
/// # Errors
///
/// Returns [`ShotError::PoolFailure`] when the backend cannot run the
/// kind (e.g. a 17-qubit LER point on the state-vector engine), a
/// divergence for failed verifications, [`ShotError::Cancelled`] when
/// the token stopped the run, or the underlying stack error.
pub fn execute(
    kind: &JobKind,
    backend: Backend,
    seed: u64,
    cancel: &CancelToken,
) -> Result<String, ShotError> {
    match execute_tracked(kind, backend, seed, cancel, None, &mut |_| {})? {
        Execution::Done(record) => Ok(record),
        Execution::Stopped { reason, .. } => Err(ShotError::Cancelled { reason }),
    }
}

/// [`execute`] with checkpoint plumbing: `resume` seeds a shot sweep
/// with a previously durable [`Checkpoint`] (skipping its completed
/// batches — byte-identical to scratch because every batch draws from
/// its own deterministic substream), and `on_batch` observes the
/// accumulated checkpoint after every completed batch (the daemon's
/// progress sink journals a paced subset of these). Kinds that are not
/// [resumable](JobKind::resumable) ignore `resume` and never call
/// `on_batch`; a cancelled `ler` run still surfaces its completed
/// window prefix through [`Execution::Stopped`] so a deadline can turn
/// it into an anytime `Partial` rather than discarding the compute.
///
/// # Errors
///
/// Same contract as [`execute`], except cooperative cancellation is
/// *not* an error for kinds that track progress — it returns
/// [`Execution::Stopped`] carrying the usable prefix.
pub fn execute_tracked(
    kind: &JobKind,
    backend: Backend,
    seed: u64,
    cancel: &CancelToken,
    resume: Option<&Checkpoint>,
    on_batch: &mut dyn FnMut(&Checkpoint),
) -> Result<Execution, ShotError> {
    let unsupported = || {
        Err(ShotError::PoolFailure(format!(
            "backend {} cannot run this job kind",
            backend.name()
        )))
    };
    match (kind, backend) {
        (
            JobKind::Ler {
                per,
                kind,
                with_pf,
                target,
                max_windows,
            },
            Backend::Packed | Backend::Reference,
        ) => {
            let config = ler_config(*per, *kind, *with_pf, *target, *max_windows, seed);
            let cancelled = || cancel.is_cancelled();
            let (outcome, stopped) = match backend {
                #[cfg(feature = "reference")]
                Backend::Reference => run_ler_on::<ReferenceTableau>(&config, &cancelled)?,
                #[cfg(not(feature = "reference"))]
                Backend::Reference => return unsupported(),
                _ => run_ler_on::<StabilizerSim>(&config, &cancelled)?,
            };
            if stopped {
                // Windows are the scalar run's shot unit: one window per
                // "batch", so the checkpoint stays plausible (shots ≤
                // batches·64) without pretending the run is resumable.
                let checkpoint = (outcome.windows > 0).then(|| Checkpoint {
                    batches: outcome.windows,
                    shots: outcome.windows,
                    failures: outcome.logical_errors,
                    counters: Vec::new(),
                });
                return Ok(Execution::Stopped {
                    checkpoint,
                    reason: format!("ler run cancelled after {} windows", outcome.windows),
                });
            }
            Ok(Execution::Done(outcome.to_record()))
        }
        (
            JobKind::LerSliced {
                per,
                kind,
                with_pf,
                target,
                max_windows,
                shots,
            },
            Backend::Packed,
        ) => {
            let config = ler_config(*per, *kind, *with_pf, *target, *max_windows, seed);
            sliced_ler_tracked(&config, *shots, seed, cancel, resume, on_batch)
        }
        (JobKind::LerSurface { d, per, shots }, Backend::Packed) => {
            let config = SurfaceLerConfig {
                distance: *d,
                physical_error_rate: *per,
                error: CheckKind::X,
                shots: *shots,
                seed,
            };
            let mut last = resume.cloned();
            let (outcome, stopped) = run_ler_surface_controlled(
                &config,
                resume,
                &|| cancel.is_cancelled(),
                &mut |checkpoint| {
                    on_batch(checkpoint);
                    last = Some(checkpoint.clone());
                },
            )?;
            if stopped {
                return Ok(Execution::Stopped {
                    checkpoint: last,
                    reason: format!(
                        "ler_surface job cancelled after {}/{shots} shots",
                        outcome.shots
                    ),
                });
            }
            Ok(Execution::Done(format!(
                "{} {} {}",
                outcome.shots, outcome.failures, outcome.defects
            )))
        }
        (JobKind::Bell { shots }, Backend::Packed) => {
            let counts = bell_counts::<StabilizerSim>(*shots, seed, cancel)?;
            Ok(Execution::Done(format!(
                "{} {} {} {}",
                counts[0], counts[1], counts[2], counts[3]
            )))
        }
        #[cfg(feature = "reference")]
        (JobKind::Bell { shots }, Backend::Reference) => {
            let counts = bell_counts::<ReferenceTableau>(*shots, seed, cancel)?;
            Ok(Execution::Done(format!(
                "{} {} {} {}",
                counts[0], counts[1], counts[2], counts[3]
            )))
        }
        (JobKind::RandomCircuit { qubits, gates }, Backend::Statevector) => Ok(Execution::Done(
            random_circuit_record(*qubits, *gates, seed)?,
        )),
        _ => unsupported(),
    }
}

/// The wire detail of a `Partial` outcome:
/// `<shots> <target> <failures> <ci_lo> <ci_hi>` — the completed-shot
/// prefix, the uninterrupted total it was heading for, the failures
/// observed, and the 95% Wilson score interval on the failure rate.
#[must_use]
pub fn partial_detail(kind: &JobKind, checkpoint: &Checkpoint) -> String {
    let (lo, hi) = wilson_interval(checkpoint.failures, checkpoint.shots, 1.96);
    format!(
        "{} {} {} {lo:.6} {hi:.6}",
        checkpoint.shots,
        kind.shot_target(),
        checkpoint.failures
    )
}

fn ler_config(
    per: f64,
    kind: LogicalErrorKind,
    with_pf: bool,
    target: u64,
    max_windows: u64,
    seed: u64,
) -> LerConfig {
    LerConfig {
        physical_error_rate: per,
        kind,
        with_pauli_frame: with_pf,
        target_logical_errors: target,
        max_windows,
        seed,
    }
}

/// The `ler_sliced` workload: `shots` rounded up to a lane multiple,
/// run 64 trajectories per pass on the sliced engine, summed into one
/// `"<executed_shots> <ten-field record>"` line.
///
/// Lane `k` of batch `b` seeds from the supervisor substream
/// `(job_seed, "lanes", b·64 + k)` — a pure function of
/// `(base_seed, id, batch, lane)`, so crash recovery and journal-retry
/// re-executions reproduce the record byte-for-byte, each lane's
/// trajectory equals the scalar run with that lane's seed (the
/// differential contract of `surface17::sliced`), and resuming from a
/// checkpoint's batch count replays exactly the remaining batches.
///
/// The checkpoint's kind-specific `counters` hold the running
/// [`LerOutcome::counters`] sum; a checkpoint without all ten
/// (foreign or truncated) is ignored and the sweep restarts from
/// scratch rather than resuming onto corrupt counters.
fn sliced_ler_tracked(
    config: &LerConfig,
    shots: u64,
    seed: u64,
    cancel: &CancelToken,
    resume: Option<&Checkpoint>,
    on_batch: &mut dyn FnMut(&Checkpoint),
) -> Result<Execution, ShotError> {
    let executed = round_up_to_lanes(shots);
    let batches = executed / LANES as u64;
    let (resume, mut total) = resume
        .filter(|c| c.batches <= batches)
        .and_then(|c| Some((Some(c), LerOutcome::from_counters(&c.counters)?)))
        .unwrap_or_default();
    let start = resume.map_or(0, |c| c.batches);
    // The checkpoint's `failures` counts failed *trajectories* (at
    // least one logical error), not summed logical errors — a
    // multi-error target could push the sum past the shot count and
    // trip the replay plausibility gate; the per-shot count is also
    // what the Partial estimator's Wilson interval is about.
    let mut failed_shots = resume.map_or(0, |c| c.failures);
    let mut last = resume.cloned();
    for batch in start..batches {
        let lane_seeds = sliced_lane_seeds(seed, "lanes", batch);
        let (outcomes, stopped) = run_ler_sliced(config, &lane_seeds, &|| cancel.is_cancelled())?;
        if stopped {
            return Ok(Execution::Stopped {
                checkpoint: last,
                reason: format!(
                    "ler_sliced job cancelled after {}/{executed} shots",
                    batch * LANES as u64
                ),
            });
        }
        for outcome in outcomes {
            failed_shots += u64::from(outcome.logical_errors > 0);
            total += outcome;
        }
        let checkpoint = Checkpoint {
            batches: batch + 1,
            shots: (batch + 1) * LANES as u64,
            failures: failed_shots,
            counters: total.counters().to_vec(),
        };
        on_batch(&checkpoint);
        last = Some(checkpoint);
    }
    Ok(Execution::Done(format!("{executed} {}", total.to_record())))
}

/// The odd-Bell workload of Section 5.2.3, generic over the stabilizer
/// tableau so the packed and reference backends run the identical
/// circuit (and, drawing the stack RNG in the same order, produce
/// identical counts).
fn bell_counts<T: CliffordTableau>(
    shots: u64,
    seed: u64,
    cancel: &CancelToken,
) -> Result<[u64; 4], ShotError> {
    let mut counts = [0u64; 4];
    for shot in 0..shots {
        if cancel.is_cancelled() {
            return Err(ShotError::Cancelled {
                reason: format!("bell job cancelled after {shot}/{shots} shots"),
            });
        }
        let mut stack = ControlStack::with_seed(ChpCore::<T>::default(), seed.wrapping_add(shot));
        stack.push_layer(PauliFrameLayer::new());
        stack.create_qubits(26)?;
        let mut a = NinjaStar::new(StarLayout::with_shared_ancillas(0, 18));
        let mut b = NinjaStar::new(StarLayout::with_shared_ancillas(9, 18));
        a.initialize_zero(&mut stack)?;
        b.initialize_zero(&mut stack)?;
        a.apply_logical_h(&mut stack)?;
        let circuit = logical_cnot(
            a.layout(),
            a.properties().rotation,
            b.layout(),
            b.properties().rotation,
        );
        stack.execute_now(circuit)?;
        a.apply_logical_x(&mut stack)?;
        let ma = a.measure_logical(&mut stack)?;
        let mb = b.measure_logical(&mut stack)?;
        counts[2 * usize::from(ma) + usize::from(mb)] += 1;
    }
    Ok(counts)
}

/// `other = phase * this`, when states match up to global phase.
fn global_phase(a: &[Complex], b: &[Complex], tol: f64) -> Option<Complex> {
    let (anchor, _) = a
        .iter()
        .enumerate()
        .max_by(|x, y| x.1.norm_sqr().total_cmp(&y.1.norm_sqr()))?;
    let (ra, rb) = (a[anchor], b[anchor]);
    if ra.norm() < tol || rb.norm() < tol {
        return None;
    }
    let phase = (rb * ra.conj()).scale(1.0 / ra.norm_sqr());
    a.iter()
        .zip(b)
        .all(|(&x, &y)| (x * phase).approx_eq(y, tol))
        .then_some(phase)
}

/// The random-circuit verification of Section 5.2.2: framed
/// state-vector execution must equal the reference up to global phase.
fn random_circuit_record(qubits: usize, gates: usize, seed: u64) -> Result<String, ShotError> {
    let mut workload_rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let circuit = random_circuit(qubits, gates, &mut workload_rng);
    let paulis = circuit.census().pauli_gates as u64;

    let mut reference = ControlStack::with_seed(SvCore::new(), seed);
    reference.create_qubits(qubits)?;
    reference.execute_now(circuit.clone())?;

    let mut framed = ControlStack::with_seed(SvCore::new(), seed);
    framed.push_layer(PauliFrameLayer::new());
    framed.create_qubits(qubits)?;
    framed.execute_now(circuit)?;
    let pf: &PauliFrameLayer = framed
        .find_layer()
        .ok_or_else(|| ShotError::PoolFailure("frame layer vanished".to_owned()))?;
    let filtered = pf.filtered_gates();
    if filtered != paulis {
        return Err(ShotError::Divergence {
            detail: format!("{filtered} gates filtered, circuit holds {paulis} Paulis"),
        });
    }
    framed.flush_pauli_frames()?;

    let a = reference.quantum_state()?;
    let b = framed.quantum_state()?;
    let (a, b) = (
        a.amplitudes().ok_or(qpdo_core::CoreError::NoQubits)?,
        b.amplitudes().ok_or(qpdo_core::CoreError::NoQubits)?,
    );
    if global_phase(a, b, 1e-7).is_none() {
        return Err(ShotError::Divergence {
            detail: "framed state differs from reference beyond global phase".to_owned(),
        });
    }
    Ok(filtered.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds() -> Vec<JobKind> {
        vec![
            JobKind::Ler {
                per: 0.0075,
                kind: LogicalErrorKind::XL,
                with_pf: true,
                target: 2,
                max_windows: 500,
            },
            JobKind::Ler {
                per: 1e-3,
                kind: LogicalErrorKind::ZL,
                with_pf: false,
                target: 1,
                max_windows: 100,
            },
            JobKind::LerSliced {
                per: 0.008,
                kind: LogicalErrorKind::XL,
                with_pf: true,
                target: 1,
                max_windows: 250,
                shots: 100,
            },
            JobKind::LerSurface {
                d: 9,
                per: 0.05,
                shots: 1_000,
            },
            JobKind::RandomCircuit {
                qubits: 4,
                gates: 30,
            },
            JobKind::Bell { shots: 3 },
        ]
    }

    #[test]
    fn kind_encoding_round_trips() {
        for kind in kinds() {
            let text = kind.encode();
            let tokens: Vec<&str> = text.split_whitespace().collect();
            assert_eq!(JobKind::parse(&tokens), Ok(kind), "{text}");
        }
    }

    #[test]
    fn kind_parse_rejects_nonsense() {
        for tokens in [
            &["ler", "0.5", "YL", "1", "2", "3"][..],
            &["ler", "2.0", "XL", "1", "2", "3"],
            &["ler", "0.5", "XL", "1", "0", "3"],
            &["ler_sliced", "0.5", "XL", "1", "2", "3", "0"],
            &["ler_sliced", "1.5", "XL", "1", "2", "3", "64"],
            &["ler_sliced", "0.5", "XL", "1", "0", "3", "64"],
            &["ler_surface", "4", "0.05", "100"],
            &["ler_surface", "15", "0.05", "100"],
            &["ler_surface", "1", "0.05", "100"],
            &["ler_surface", "5", "1.5", "100"],
            &["ler_surface", "5", "0.05", "0"],
            &["ler_surface", "5", "0.05", "1048577"],
            &["rc", "0", "10"],
            &["rc", "30", "10"],
            &["bell", "0"],
            &["teleport", "1"],
            &[],
        ] {
            assert!(JobKind::parse(tokens).is_err(), "{tokens:?}");
        }
    }

    #[test]
    fn spec_encoding_round_trips() {
        for deadline_ms in [None, Some(1500)] {
            let spec = JobSpec {
                id: "job-007".to_owned(),
                deadline_ms,
                kind: JobKind::Bell { shots: 2 },
            };
            let text = format!("{} {}", spec.id, spec.encode_tail());
            let tokens: Vec<&str> = text.split_whitespace().collect();
            assert_eq!(JobSpec::parse(&tokens), Ok(spec));
        }
    }

    #[test]
    fn spec_ids_are_validated() {
        assert!(JobSpec::validate_id("job-1").is_ok());
        assert!(JobSpec::validate_id("").is_err());
        assert!(JobSpec::validate_id("has space").is_err());
        assert!(JobSpec::validate_id("has,comma").is_err());
        assert!(JobSpec::validate_id(&"x".repeat(MAX_JOB_ID_LEN + 1)).is_err());
    }

    #[test]
    fn job_seed_is_a_pure_function_of_base_and_id() {
        assert_eq!(job_seed(2016, "a"), job_seed(2016, "a"));
        assert_ne!(job_seed(2016, "a"), job_seed(2016, "b"));
        assert_ne!(job_seed(2016, "a"), job_seed(2017, "a"));
    }

    #[cfg(feature = "reference")]
    #[test]
    fn packed_and_reference_backends_agree_byte_for_byte() {
        let cancel = CancelToken::new();
        let seed = job_seed(2016, "agree-test");
        for kind in [
            JobKind::Ler {
                per: 0.008,
                kind: LogicalErrorKind::XL,
                with_pf: true,
                target: 1,
                max_windows: 400,
            },
            JobKind::Bell { shots: 2 },
        ] {
            let packed = execute(&kind, Backend::Packed, seed, &cancel).unwrap();
            let reference = execute(&kind, Backend::Reference, seed, &cancel).unwrap();
            assert_eq!(packed, reference, "{kind:?}");
        }
    }

    #[test]
    fn unsupported_backend_is_a_routing_error() {
        let cancel = CancelToken::new();
        let result = execute(
            &JobKind::Bell { shots: 1 },
            Backend::Statevector,
            1,
            &cancel,
        );
        assert!(matches!(result, Err(ShotError::PoolFailure(_))));
    }

    #[test]
    fn cancelled_bell_job_reports_cancellation() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let result = execute(&JobKind::Bell { shots: 5 }, Backend::Packed, 1, &cancel);
        assert!(matches!(result, Err(ShotError::Cancelled { .. })));
    }

    #[test]
    fn cancelled_ler_job_reports_cancellation() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let kind = JobKind::Ler {
            per: 0.005,
            kind: LogicalErrorKind::XL,
            with_pf: true,
            target: 50,
            max_windows: 1_000_000,
        };
        // The window loop consults the token, so even a huge job stops
        // immediately — this is what lets a deadline watcher cancel a
        // running LER job instead of stalling the round.
        let result = execute(&kind, Backend::Packed, 1, &cancel);
        assert!(matches!(result, Err(ShotError::Cancelled { .. })));
    }

    /// A breaker may reroute an `ler` job to the reference engine; a
    /// cancellation must end it the same way there — `Stopped`, which a
    /// deadline turns into an anytime `partial` — not as an error.
    #[cfg(feature = "reference")]
    #[test]
    fn cancelled_ler_job_stops_identically_on_both_backends() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let kind = JobKind::Ler {
            per: 0.005,
            kind: LogicalErrorKind::XL,
            with_pf: true,
            target: 50,
            max_windows: 1_000_000,
        };
        let run = |backend| execute_tracked(&kind, backend, 1, &cancel, None, &mut |_| {});
        let packed = run(Backend::Packed).unwrap();
        assert_eq!(
            packed,
            Execution::Stopped {
                checkpoint: None,
                reason: "ler run cancelled after 0 windows".to_owned(),
            }
        );
        assert_eq!(run(Backend::Reference).unwrap(), packed);
    }

    #[test]
    fn sliced_ler_job_sums_its_scalar_lane_twins() {
        use qpdo_surface17::experiment::run_ler;

        let cancel = CancelToken::new();
        let seed = job_seed(2016, "sliced-agree");
        let config = LerConfig {
            physical_error_rate: 0.01,
            kind: LogicalErrorKind::XL,
            with_pauli_frame: true,
            target_logical_errors: 1,
            max_windows: 100,
            seed,
        };
        let kind = JobKind::LerSliced {
            per: config.physical_error_rate,
            kind: config.kind,
            with_pf: config.with_pauli_frame,
            target: config.target_logical_errors,
            max_windows: config.max_windows,
            // Rounds up to one full 64-lane pass.
            shots: 10,
        };
        let record = execute(&kind, Backend::Packed, seed, &cancel).unwrap();

        let mut expected = LerOutcome::default();
        for lane_seed in sliced_lane_seeds(seed, "lanes", 0) {
            expected += run_ler(&LerConfig {
                seed: lane_seed,
                ..config
            })
            .unwrap();
        }
        assert_eq!(record, format!("64 {}", expected.to_record()));
    }

    #[test]
    fn cancelled_sliced_ler_job_reports_cancellation() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let kind = JobKind::LerSliced {
            per: 0.005,
            kind: LogicalErrorKind::ZL,
            with_pf: false,
            target: 50,
            max_windows: 1_000_000,
            shots: 640,
        };
        let result = execute(&kind, Backend::Packed, 1, &cancel);
        assert!(matches!(result, Err(ShotError::Cancelled { .. })));
    }

    #[test]
    fn surface_ler_job_is_deterministic_and_reports_real_work() {
        let cancel = CancelToken::new();
        let seed = job_seed(2016, "surface-det");
        let kind = JobKind::LerSurface {
            d: 3,
            per: 0.1,
            shots: 256,
        };
        let first = execute(&kind, Backend::Packed, seed, &cancel).unwrap();
        let second = execute(&kind, Backend::Packed, seed, &cancel).unwrap();
        // Crash recovery / journal retry must reproduce the record
        // byte-for-byte from (base_seed, id) alone.
        assert_eq!(first, second);
        let fields: Vec<u64> = first
            .split_whitespace()
            .map(|t| t.parse().unwrap())
            .collect();
        assert_eq!(fields[0], 256, "all requested shots counted: {first}");
        assert!(fields[2] > 0, "p = 0.1 must fire checks: {first}");
    }

    #[test]
    fn cancelled_surface_ler_job_reports_cancellation() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let kind = JobKind::LerSurface {
            d: 13,
            per: 0.05,
            shots: MAX_SURFACE_SHOTS,
        };
        // The batch loop consults the token, so even the heaviest
        // surface job stops without running its million shots.
        let result = execute(&kind, Backend::Packed, 1, &cancel);
        assert!(matches!(result, Err(ShotError::Cancelled { .. })));
    }

    #[test]
    fn surface_ler_runs_only_on_the_packed_backend() {
        let cancel = CancelToken::new();
        let kind = JobKind::LerSurface {
            d: 5,
            per: 0.05,
            shots: 64,
        };
        assert_eq!(kind.backend_preference(), &[Backend::Packed]);
        for backend in [Backend::Reference, Backend::Statevector] {
            let result = execute(&kind, backend, 1, &cancel);
            assert!(matches!(result, Err(ShotError::PoolFailure(_))));
        }
    }

    #[test]
    fn sliced_ler_runs_only_on_the_packed_backend() {
        let cancel = CancelToken::new();
        let kind = JobKind::LerSliced {
            per: 0.005,
            kind: LogicalErrorKind::XL,
            with_pf: true,
            target: 1,
            max_windows: 10,
            shots: 64,
        };
        assert_eq!(kind.backend_preference(), &[Backend::Packed]);
        let result = execute(&kind, Backend::Reference, 1, &cancel);
        assert!(matches!(result, Err(ShotError::PoolFailure(_))));
    }
}
