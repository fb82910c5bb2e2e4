//! The nonblocking serving event loop (`DESIGN.md` §12.1).
//!
//! One thread multiplexes every client connection: a readiness scan
//! pass reads whatever each socket has, feeds it through the
//! connection's [`FrameBuf`] state machine, executes the complete
//! requests, and flushes replies — all on nonblocking sockets, so no
//! peer can ever block the loop. The repo forbids `unsafe`, which rules
//! out raw `epoll`; instead the loop is a scan poller: when a full pass
//! makes no progress it parks on a condvar for at most
//! `IDLE_WAIT`, woken early by the commit thread whenever a batch of
//! submission acks becomes deliverable. On an idle daemon that is one
//! bounded wakeup every half millisecond; under load the loop never
//! parks at all.
//!
//! Invariants the loop maintains:
//!
//! - **Reply ordering**: each connection holds a queue of reply slots,
//!   one per request, filled in request order. A submit parks its slot
//!   on a group-commit token; replies behind it (even instant ones like
//!   `query`) wait until it resolves, so pipelined clients see
//!   responses in submission order.
//! - **WAL-before-ack**: a submit's `accepted` frame is only *encoded*
//!   when its commit token completes successfully — the bytes cannot
//!   reach the socket before the batch fsync returns.
//! - **Reservation hygiene**: every `SubmitAdmission::Reserved` is
//!   resolved through `submit_finish` exactly once, even when the
//!   connection dies while the commit is in flight (the completion is
//!   delivered to a dead connection id and the reply dropped, but the
//!   reservation is still released — otherwise a drain would wait on it
//!   forever).
//! - **Deadline reaping**: a connection with no socket progress for
//!   [`DaemonConfig::io_timeout`] is closed, whether it is idle,
//!   holding a partial frame (slowloris), or refusing to read its
//!   replies (write stall).
//! - **Backpressure**: beyond
//!   [`DaemonConfig::max_inflight_bytes`] of buffered input + output
//!   the loop stops reading, pushing back through the peers' TCP
//!   windows; admission sheds (`busy` over the connection cap,
//!   `overloaded` over the queue depth) are typed so the fleet router
//!   keeps its failover classification.
//!
//! [`DaemonConfig::io_timeout`]: crate::daemon::DaemonConfig::io_timeout
//! [`DaemonConfig::max_inflight_bytes`]: crate::daemon::DaemonConfig::max_inflight_bytes

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use qpdo_core::journal::encode_record;

use crate::daemon::{
    handle_progress, handle_query, shed_connection, submit_begin, submit_finish, Service,
    SubmitAdmission,
};
use crate::frame::FrameBuf;
use crate::job::JobSpec;
use crate::protocol::{RejectCode, Request, Response};
use crate::wal::WalRecord;

/// Longest the loop parks when a full pass made no progress.
const IDLE_WAIT: Duration = Duration::from_micros(500);
/// Per-pass read chunk; a connection may drain several per pass.
const READ_CHUNK: usize = 4096;
/// After shutdown, how long the loop keeps flushing `drained` replies
/// to their waiters before giving up on unreachable peers.
const FLUSH_GRACE: Duration = Duration::from_secs(1);
/// Consumed output beyond this is compacted out of the buffer.
const OUT_COMPACT: usize = 64 * 1024;

/// One queued reply, in request order.
enum Slot {
    /// Encoded frame bytes ready to move to the output buffer.
    Ready(Vec<u8>),
    /// A submit parked on its group-commit token.
    Commit(u64),
    /// A drain request parked until the daemon finishes draining; it
    /// becomes `Ready(drained)` exactly once, when shutdown fires.
    Drain,
}

struct Conn {
    stream: TcpStream,
    inbuf: FrameBuf,
    outbuf: Vec<u8>,
    outpos: usize,
    replies: VecDeque<Slot>,
    last_activity: Instant,
    /// Flush what is queued, then close (malformed stream, or the peer
    /// half-closed and every pending reply has been delivered).
    closing: bool,
    /// Peer sent EOF; nothing more will be read.
    read_closed: bool,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Self {
        Conn {
            stream,
            inbuf: FrameBuf::new(),
            outbuf: Vec::new(),
            outpos: 0,
            replies: VecDeque::new(),
            last_activity: now,
            closing: false,
            read_closed: false,
        }
    }

    fn unsent(&self) -> usize {
        self.outbuf.len() - self.outpos
    }

    fn buffered(&self) -> usize {
        self.inbuf.pending() + self.unsent()
    }

    fn push_reply(&mut self, response: &Response) {
        self.replies.push_back(Slot::Ready(encode_reply(response)));
    }

    /// Moves every leading `Ready` slot into the output buffer,
    /// preserving request order behind any parked slot.
    fn stage_replies(&mut self) {
        while let Some(Slot::Ready(_)) = self.replies.front() {
            let Some(Slot::Ready(bytes)) = self.replies.pop_front() else {
                unreachable!("front checked above");
            };
            self.outbuf.extend_from_slice(&bytes);
        }
    }
}

fn encode_reply(response: &Response) -> Vec<u8> {
    encode_record(response.encode().as_bytes()).expect("responses are far below the frame bound")
}

/// Runs the event loop until a drain completes. See the module docs.
pub(crate) fn run(listener: &TcpListener, service: &Arc<Service>) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    // The commit thread pokes this pair when submission acks become
    // deliverable, so ack latency is bounded by the fsync, not the
    // idle-wait granularity.
    let waker = Arc::new((Mutex::new(false), Condvar::new()));
    {
        let waker = Arc::clone(&waker);
        service.commit.set_waker(Arc::new(move || {
            let (flag, cond) = &*waker;
            *flag.lock().expect("waker lock") = true;
            cond.notify_all();
        }));
    }

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_conn: u64 = 0;
    // Rotates the per-pass service order so read-budget exhaustion
    // never starves the same connections every pass.
    let mut service_offset: usize = 0;
    // Commit token → (connection, spec): kept past connection death so
    // the reservation still resolves.
    let mut inflight: HashMap<u64, (u64, JobSpec)> = HashMap::new();
    let mut shutdown_at: Option<Instant> = None;

    loop {
        let now = Instant::now();
        let mut progress = false;

        // 1. Deliver group-commit completions: finish the reserved
        // submissions and fill their reply slots (dead connections
        // still release their reservations; the reply is dropped).
        for completion in service.commit.take_completions() {
            progress = true;
            let Some((conn_id, spec)) = inflight.remove(&completion.token) else {
                continue;
            };
            let response = submit_finish(service, &spec, completion.result);
            if let Some(conn) = conns.get_mut(&conn_id) {
                for slot in &mut conn.replies {
                    if matches!(slot, Slot::Commit(t) if *t == completion.token) {
                        *slot = Slot::Ready(encode_reply(&response));
                        break;
                    }
                }
            }
        }

        // 2. Accept — drained fully each pass, shedding over the cap.
        if shutdown_at.is_none() {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        progress = true;
                        if conns.len() >= service.config.max_conns {
                            shed_connection(service, stream);
                            continue;
                        }
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        conns.insert(next_conn, Conn::new(stream, now));
                        next_conn += 1;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
        }

        // 3. Byte backpressure: over the budget, this pass reads
        // nothing and lets TCP windows fill, but keeps executing and
        // flushing so the budget drains.
        let buffered: usize = conns.values().map(Conn::buffered).sum();
        let mut read_budget = service
            .config
            .max_inflight_bytes
            .saturating_sub(buffered)
            .min(service.config.max_inflight_bytes);

        // 4. Service every connection: read, execute frames, stage and
        // write replies, then apply close/reap rules. The order rotates
        // each pass, and each connection's reads are capped at a fair
        // share of the pass budget (floored at one chunk), so a single
        // fast-writing peer cannot drain the whole global budget and
        // starve whoever happens to be iterated after it.
        let mut dead: Vec<u64> = Vec::new();
        let mut ids: Vec<u64> = conns.keys().copied().collect();
        ids.sort_unstable();
        if !ids.is_empty() {
            service_offset %= ids.len();
            ids.rotate_left(service_offset);
            service_offset = service_offset.wrapping_add(1);
        }
        let fair_share = read_budget
            .checked_div(ids.len())
            .unwrap_or(0)
            .max(READ_CHUNK);
        for id in ids {
            let conn = conns.get_mut(&id).expect("listed connection exists");
            let mut broken = false;

            // Read until WouldBlock, EOF, or budget exhaustion — the
            // connection's fair share first, the global budget second.
            if !conn.closing && !conn.read_closed {
                let mut chunk = [0u8; READ_CHUNK];
                let mut conn_budget = fair_share.min(read_budget);
                while conn_budget > 0 {
                    match conn.stream.read(&mut chunk) {
                        Ok(0) => {
                            conn.read_closed = true;
                            break;
                        }
                        Ok(n) => {
                            progress = true;
                            conn.last_activity = now;
                            conn.inbuf.extend(&chunk[..n]);
                            conn_budget = conn_budget.saturating_sub(n);
                            read_budget = read_budget.saturating_sub(n);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => {
                            broken = true;
                            break;
                        }
                    }
                }
            }

            // Execute every complete frame, in order.
            while !broken && !conn.closing {
                match conn.inbuf.next_frame() {
                    Ok(None) => break,
                    Ok(Some(payload)) => {
                        progress = true;
                        handle_frame(service, conn, id, &mut inflight, payload);
                    }
                    Err(e) => {
                        // Corrupt frame: answer once, then hang up
                        // (resync is impossible mid-stream).
                        conn.push_reply(&Response::rejected(
                            RejectCode::Malformed,
                            format!("malformed frame: {e}"),
                        ));
                        conn.closing = true;
                    }
                }
            }

            // Stage ordered replies and write until WouldBlock.
            conn.stage_replies();
            while !broken && conn.outpos < conn.outbuf.len() {
                match conn.stream.write(&conn.outbuf[conn.outpos..]) {
                    Ok(0) => {
                        broken = true;
                    }
                    Ok(n) => {
                        progress = true;
                        conn.last_activity = now;
                        conn.outpos += n;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        broken = true;
                    }
                }
            }
            if conn.outpos >= conn.outbuf.len() {
                conn.outbuf.clear();
                conn.outpos = 0;
            } else if conn.outpos > OUT_COMPACT {
                conn.outbuf.drain(..conn.outpos);
                conn.outpos = 0;
            }

            // Close rules: broken sockets immediately; flushed closers
            // and half-closed peers with nothing pending; and the
            // io-timeout reap for idle, mid-frame-stalled (slowloris),
            // and write-stalled peers alike.
            let flushed = conn.unsent() == 0 && conn.replies.is_empty();
            let reap = !service.config.io_timeout.is_zero()
                && now.saturating_duration_since(conn.last_activity) > service.config.io_timeout;
            if broken || (conn.closing && flushed) || (conn.read_closed && flushed) || reap {
                dead.push(id);
            }
        }
        for id in dead {
            progress = true;
            conns.remove(&id);
        }

        // 5. Drain: once requested, fires when every reservation has
        // resolved and (unless the journal is degraded, which strands
        // queued work forever) the queue is dry. Each parked drain
        // waiter is woken exactly once, here.
        if shutdown_at.is_none() {
            let degraded = service.commit.is_degraded();
            let mut state = service.state.lock().expect("state lock");
            if state.draining && !state.shutdown && state.drained(degraded) {
                state.shutdown = true;
                service.wake.notify_all();
                drop(state);
                progress = true;
                for conn in conns.values_mut() {
                    for slot in &mut conn.replies {
                        if matches!(slot, Slot::Drain) {
                            *slot = Slot::Ready(encode_reply(&Response::Drained));
                        }
                    }
                }
                shutdown_at = Some(now + FLUSH_GRACE);
            }
        }

        // 6. Exit once the drained replies are out (or the grace
        // period gives up on unreachable waiters).
        if let Some(deadline) = shutdown_at {
            let flushed = conns
                .values()
                .all(|c| c.unsent() == 0 && c.replies.is_empty());
            if flushed || now >= deadline {
                return Ok(());
            }
        }

        // 7. Idle park: bounded, and cut short by the commit waker.
        if !progress {
            let (flag, cond) = &*waker;
            let mut woken = flag.lock().expect("waker lock");
            if !*woken {
                let (w, _) = cond.wait_timeout(woken, IDLE_WAIT).expect("waker lock");
                woken = w;
            }
            *woken = false;
        }
    }
}

/// Executes one parsed frame on `conn`, pushing its reply slot.
fn handle_frame(
    service: &Arc<Service>,
    conn: &mut Conn,
    conn_id: u64,
    inflight: &mut HashMap<u64, (u64, JobSpec)>,
    payload: Vec<u8>,
) {
    let line = match String::from_utf8(payload) {
        Ok(line) => line,
        Err(_) => {
            conn.push_reply(&Response::rejected(
                RejectCode::Malformed,
                "frame payload is not UTF-8",
            ));
            conn.closing = true;
            return;
        }
    };
    match Request::parse(&line) {
        Err(reason) => conn.push_reply(&Response::rejected(RejectCode::Malformed, reason)),
        Ok(Request::Submit(spec)) => match submit_begin(service, spec) {
            SubmitAdmission::Reply(response) => conn.push_reply(&response),
            SubmitAdmission::Reserved(spec) => {
                match service.commit.append_async(WalRecord::Accept(spec.clone())) {
                    Ok(token) => {
                        inflight.insert(token, (conn_id, spec));
                        conn.replies.push_back(Slot::Commit(token));
                    }
                    Err(e) => {
                        // Refused at enqueue: resolve the reservation
                        // right here.
                        let response = submit_finish(service, &spec, Err(e));
                        conn.push_reply(&response);
                    }
                }
            }
        },
        Ok(Request::Query(id)) => conn.push_reply(&handle_query(service, &id)),
        Ok(Request::Progress(id)) => conn.push_reply(&handle_progress(service, &id)),
        Ok(Request::Health) => {
            let degraded = service.commit.is_degraded();
            let checkpointing = service.checkpointing_on();
            let state = service.state.lock().expect("state lock");
            let snapshot = state.health(degraded, checkpointing);
            drop(state);
            conn.push_reply(&Response::Health(Box::new(snapshot)));
        }
        Ok(Request::Drain) => {
            let mut state = service.state.lock().expect("state lock");
            state.draining = true;
            service.wake.notify_all();
            drop(state);
            conn.replies.push_back(Slot::Drain);
        }
    }
}
