//! Seeded fuzz for the serving wire formats (`DESIGN.md` §12.4): the
//! line parsers ([`qpdo_serve::protocol`]) and the zero-copy frame
//! reassembler ([`qpdo_serve::frame`]). Every case is deterministic —
//! a failure reproduces from the printed seed — and the contract under
//! fuzz is always the same: **no panic, typed errors, partial input
//! resumes cleanly**.

use std::io::Cursor;

use qpdo_core::journal::encode_record;
use qpdo_rng::rngs::StdRng;
use qpdo_rng::{Rng, SeedableRng};
use qpdo_serve::frame::FrameBuf;
use qpdo_serve::protocol::{recv_line, send_line, Request, Response};

const SEED: u64 = 0x5E_EDF0_5E17;

/// Protocol vocabulary plus near-miss junk: dictionary-guided fuzz
/// reaches far deeper into the parsers than uniform noise.
const DICT: &[&str] = &[
    "submit",
    "query",
    "health",
    "drain",
    "accepted",
    "duplicate",
    "rejected",
    "state",
    "done",
    "failed",
    "drained",
    "busy",
    "overloaded",
    "draining",
    "journal",
    "degraded",
    "pruned",
    "unknown-job",
    "malformed",
    "unavailable",
    "other",
    "bell",
    "ler",
    "ler_surface",
    "rc",
    "XL",
    "ZL",
    "-",
    "0",
    "1",
    "17",
    "65535",
    "184467440737095516160",
    "-3",
    "0.5",
    "1e309",
    "NaN",
    "ok",
    "queued",
    "running",
    "partial",
    "progress",
    "queued=",
    "partials=",
    "batches=",
    "checkpoint=",
    "checkpoint=on",
    "checkpoint=off",
    "a,b",
    ":",
    "=",
    "job-1",
    "\u{1f9ea}",
    "ü",
];

fn random_line(rng: &mut StdRng) -> String {
    let tokens = rng.gen_range(0..8usize);
    let mut line = String::new();
    for i in 0..tokens {
        if i > 0 {
            line.push(if rng.gen_bool(0.9) { ' ' } else { '\t' });
        }
        if rng.gen_bool(0.7) {
            line.push_str(DICT[rng.gen_range(0..DICT.len())]);
        } else {
            for _ in 0..rng.gen_range(1..6usize) {
                line.push(char::from_u32(rng.gen_range(1..0xd7ff_u32)).unwrap_or('?'));
            }
        }
    }
    line
}

/// 20k seeded dictionary-guided lines through both line parsers:
/// parsing must never panic, only answer `Ok` or a typed `Err`.
#[test]
fn line_parsers_never_panic_on_random_lines() {
    let mut rng = StdRng::seed_from_u64(SEED);
    for case in 0..20_000 {
        let line = random_line(&mut rng);
        let request = std::panic::catch_unwind(|| Request::parse(&line).map(|_| ()));
        let response = std::panic::catch_unwind(|| Response::parse(&line).map(|_| ()));
        assert!(
            request.is_ok() && response.is_ok(),
            "case {case} (seed {SEED:#x}): parser panicked on {line:?}"
        );
    }
}

/// Every prefix of every valid wire line parses without panicking, and
/// the untruncated line still parses cleanly after the gauntlet.
#[test]
fn valid_lines_survive_truncation_at_every_boundary() {
    let lines = [
        "submit bell-1 500 bell 12",
        "submit ler-1 - ler 0.006 XL 1 2 300",
        "submit rc-1 - rc 4 30",
        "query bell-1",
        "health",
        "drain",
        "accepted bell-1",
        "duplicate bell-1",
        "rejected overloaded queue full",
        "rejected degraded",
        "state bell-1 queued",
        "done bell-1 0 1 1 0",
        "failed bell-1 deadline exceeded",
        "partial sweep-1 11264 1000000 148 0.011114 0.015319",
        "progress sweep-1",
        "progress sweep-1 176 11264 148",
        "health ok queued=1 running=2 accepted=3 completed=1 failed=0 shed=4 duplicates=0 \
         partials=1 batches=176 checkpoint=on",
        "drained",
    ];
    for line in lines {
        for cut in 0..=line.len() {
            if !line.is_char_boundary(cut) {
                continue;
            }
            let prefix = &line[..cut];
            let _ = Request::parse(prefix);
            let _ = Response::parse(prefix);
        }
        assert!(
            Request::parse(line).is_ok() || Response::parse(line).is_ok(),
            "untruncated line no longer parses: {line:?}"
        );
    }
}

/// A frame stream cut into random chunk sizes — down to one byte —
/// must reassemble byte-identically no matter where the cuts land.
#[test]
fn framebuf_reassembles_any_chunking() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 1);
    for round in 0..200 {
        let payloads: Vec<Vec<u8>> = (0..rng.gen_range(1..8usize))
            .map(|_| (0..rng.gen_range(0..200usize)).map(|_| rng.gen()).collect())
            .collect();
        let mut stream = Vec::new();
        for payload in &payloads {
            stream.extend_from_slice(&encode_record(payload).expect("encodable payload"));
        }
        let mut buf = FrameBuf::new();
        let mut out = Vec::new();
        let mut fed = 0;
        while fed < stream.len() {
            let chunk = rng.gen_range(1..=16usize).min(stream.len() - fed);
            buf.extend(&stream[fed..fed + chunk]);
            fed += chunk;
            while let Some(frame) = buf.next_frame().expect("clean stream never errors") {
                out.push(frame);
            }
        }
        assert_eq!(out, payloads, "round {round} (seed {:#x})", SEED ^ 1);
        assert!(!buf.has_partial(), "round {round}: bytes left after stream");
    }
}

/// One flipped byte anywhere in a frame stream: the reassembler must
/// deliver only an unbroken prefix of the original payloads and then
/// either report a typed error or wait for more input — never panic,
/// never invent a frame.
#[test]
fn framebuf_survives_single_byte_corruption() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 2);
    for round in 0..300 {
        let payloads: Vec<Vec<u8>> = (0..rng.gen_range(1..5usize))
            .map(|_| (0..rng.gen_range(1..60usize)).map(|_| rng.gen()).collect())
            .collect();
        let mut stream = Vec::new();
        for payload in &payloads {
            stream.extend_from_slice(&encode_record(payload).expect("encodable payload"));
        }
        let target = rng.gen_range(0..stream.len());
        stream[target] ^= 1 << rng.gen_range(0..8u32);

        let mut buf = FrameBuf::new();
        buf.extend(&stream);
        let mut delivered = 0usize;
        // Starvation (`Ok(None)`) and typed errors both end the stream.
        while let Ok(Some(frame)) = buf.next_frame() {
            assert!(
                delivered < payloads.len() && frame == payloads[delivered],
                "round {round} (seed {:#x}): corrupted stream delivered a frame \
                 that was never sent",
                SEED ^ 2
            );
            delivered += 1;
        }
    }
}

/// Uniformly random garbage fed in random chunks: the reassembler
/// answers `Ok(None)` (needs more) or a typed error, and never panics.
#[test]
fn framebuf_never_panics_on_random_bytes() {
    let mut rng = StdRng::seed_from_u64(SEED ^ 3);
    for _ in 0..500 {
        let mut buf = FrameBuf::new();
        'stream: for _ in 0..rng.gen_range(1..6usize) {
            let chunk: Vec<u8> = (0..rng.gen_range(1..120usize)).map(|_| rng.gen()).collect();
            buf.extend(&chunk);
            loop {
                match buf.next_frame() {
                    Ok(Some(_)) => {} // a random CRC collision; harmless
                    Ok(None) => break,
                    Err(_) => break 'stream, // typed rejection ends the connection
                }
            }
        }
    }
}

/// The blocking line transport rejects a framed non-UTF-8 payload with
/// a typed `InvalidData` error instead of panicking, and a clean
/// framed line round-trips through the same pair.
#[test]
fn recv_line_rejects_non_utf8_payloads() {
    let framed = encode_record(&[0xff, 0xfe, 0x80]).expect("encodable payload");
    let err = recv_line(&mut Cursor::new(framed)).expect_err("non-UTF-8 payload must error");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    let mut wire = Vec::new();
    send_line(&mut wire, "health").expect("send");
    assert_eq!(
        recv_line(&mut Cursor::new(wire)).expect("recv"),
        Some("health".to_owned())
    );
}

/// Truncating a framed line at every byte offset: `recv_line` answers
/// `Ok(None)` (clean EOF before a record) or a typed error — the
/// blocking transport's version of "partial frames resume cleanly".
#[test]
fn recv_line_survives_truncated_frames() {
    let mut wire = Vec::new();
    send_line(&mut wire, "submit bell-1 - bell 12").expect("send");
    for cut in 0..wire.len() {
        match recv_line(&mut Cursor::new(&wire[..cut])) {
            Ok(None) | Err(_) => {}
            Ok(Some(line)) => panic!("truncated frame at {cut} produced a line {line:?}"),
        }
    }
}
