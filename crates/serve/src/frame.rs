//! Incremental frame codec for the nonblocking event loop
//! (`DESIGN.md` §12.1).
//!
//! The blocking protocol helpers ([`crate::protocol::recv_line`]) pull
//! whole frames out of a stream, sleeping inside `read`. The event
//! loop cannot sleep: it feeds whatever bytes a readiness pass yielded
//! into a [`FrameBuf`] and extracts as many complete frames as those
//! bytes finish. Partial frames stay buffered and resume on the next
//! pass — a client may dribble one byte per write and still parse.
//!
//! The wire format is the journal's CRC framing
//! (`[len u32 BE][crc32 u32 BE][payload]`, written by
//! `qpdo_core::journal::encode_record`), and the error contract mirrors
//! `read_record`: an oversized length prefix or a CRC mismatch is
//! `InvalidData` *before* any allocation sized by attacker-controlled
//! bytes.

use std::io;

use qpdo_core::journal::{crc32, MAX_RECORD_LEN};

/// Frame header size: 4-byte length + 4-byte CRC, both big-endian.
pub const HEADER_LEN: usize = 8;

/// An incremental reassembly buffer: bytes in, complete frames out.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by extracted frames. Compacted
    /// lazily so a burst of small frames costs one `drain`, not many.
    pos: usize,
}

impl FrameBuf {
    /// An empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends bytes read from the peer.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing so a slow dribbler cannot pin
        // consumed prefixes forever.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > MAX_RECORD_LEN) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Number of bytes buffered but not yet returned as frames (the
    /// event loop's per-connection read-budget accounting).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether a partial frame is buffered — a peer that holds one of
    /// these across the read deadline is a mid-frame staller and gets
    /// reaped.
    #[must_use]
    pub fn has_partial(&self) -> bool {
        self.pending() > 0
    }

    /// Extracts the next complete frame, or `Ok(None)` when more bytes
    /// are needed.
    ///
    /// # Errors
    ///
    /// `InvalidData` when the length prefix exceeds [`MAX_RECORD_LEN`]
    /// (checked before anything is allocated from it) or the payload
    /// fails its CRC. The connection is poisoned either way — framing never
    /// resynchronizes after corruption.
    pub fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        let avail = &self.buf[self.pos..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        let len = u32::from_be_bytes(avail[0..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_RECORD_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds {MAX_RECORD_LEN}"),
            ));
        }
        if avail.len() < HEADER_LEN + len {
            return Ok(None);
        }
        let expected = u32::from_be_bytes(avail[4..8].try_into().expect("4 bytes"));
        let payload = avail[HEADER_LEN..HEADER_LEN + len].to_vec();
        if crc32(&payload) != expected {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame CRC mismatch",
            ));
        }
        self.pos += HEADER_LEN + len;
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qpdo_core::journal::encode_record;

    #[test]
    fn whole_frame_round_trips() {
        let mut fb = FrameBuf::new();
        fb.extend(&encode_record(b"health").unwrap());
        assert_eq!(fb.next_frame().unwrap().as_deref(), Some(&b"health"[..]));
        assert_eq!(fb.next_frame().unwrap(), None);
        assert!(!fb.has_partial());
    }

    #[test]
    fn byte_at_a_time_resumes_cleanly() {
        let frame = encode_record(b"submit j-1 - bell 4").unwrap();
        let mut fb = FrameBuf::new();
        for (i, byte) in frame.iter().enumerate() {
            assert_eq!(fb.next_frame().unwrap(), None, "early frame at byte {i}");
            fb.extend(std::slice::from_ref(byte));
        }
        assert_eq!(
            fb.next_frame().unwrap().as_deref(),
            Some(&b"submit j-1 - bell 4"[..])
        );
        assert!(!fb.has_partial());
    }

    #[test]
    fn coalesced_frames_all_extract() {
        let mut bytes = Vec::new();
        for i in 0..5 {
            bytes.extend_from_slice(&encode_record(format!("query j-{i}").as_bytes()).unwrap());
        }
        let mut fb = FrameBuf::new();
        fb.extend(&bytes);
        for i in 0..5 {
            assert_eq!(
                fb.next_frame().unwrap(),
                Some(format!("query j-{i}").into_bytes())
            );
        }
        assert_eq!(fb.next_frame().unwrap(), None);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut fb = FrameBuf::new();
        let mut header = ((MAX_RECORD_LEN + 1) as u32).to_be_bytes().to_vec();
        header.extend_from_slice(&[0; 4]);
        fb.extend(&header);
        let err = fb.next_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn crc_mismatch_is_invalid_data() {
        let mut frame = encode_record(b"health").unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        let mut fb = FrameBuf::new();
        fb.extend(&frame);
        let err = fb.next_frame().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn consumed_prefixes_are_compacted() {
        let mut fb = FrameBuf::new();
        for i in 0..100 {
            fb.extend(&encode_record(format!("query j-{i}").as_bytes()).unwrap());
            assert!(fb.next_frame().unwrap().is_some());
        }
        // After each fully-drained extend the buffer compacts, so
        // steady-state memory stays bounded by one frame.
        assert_eq!(fb.pending(), 0);
        fb.extend(b"");
        assert!(fb.buf.len() <= HEADER_LEN + 16);
    }
}
