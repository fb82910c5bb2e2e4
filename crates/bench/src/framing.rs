//! Durable-file framing primitives shared by the sweep checkpoint
//! ([`crate::checkpoint`]) and the shot-service write-ahead journal
//! (`qpdo-serve`): an in-repo CRC32, a length+CRC record frame, and
//! crash-atomic whole-file replacement.
//!
//! # Record frame
//!
//! A framed record is `[len: u32 BE][crc: u32 BE][payload: len bytes]`
//! where `crc` is the CRC32 (IEEE/zlib polynomial, reflected) of the
//! payload. Readers treat a clean EOF between records as the end of the
//! stream and anything else — a short header, a short payload, a CRC
//! mismatch, an oversized length — as a **torn tail**: the well-formed
//! prefix is kept and the torn record (plus everything after it) is
//! dropped. That is exactly the recovery semantics a `kill -9` during an
//! append requires.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

/// Records larger than this are rejected on both write and read: no
/// legitimate checkpoint block or journal entry comes close, and the
/// bound keeps a corrupt length field from allocating gigabytes.
pub const MAX_RECORD_LEN: usize = 16 << 20;

/// The CRC32 lookup table (IEEE 802.3 / zlib polynomial `0xEDB88320`,
/// reflected), built once at first use.
fn crc_table() -> &'static [u32; 256] {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        table
    })
}

/// The CRC32 (IEEE/zlib) of `bytes`. KAT: `crc32(b"123456789") ==
/// 0xCBF4_3926`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let table = crc_table();
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in bytes {
        crc = (crc >> 8) ^ table[((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// Appends one framed record to `w` with a single `write_all`, so a
/// socket sends header and payload together instead of tripping the
/// Nagle / delayed-ACK stall that small back-to-back writes cause. Does
/// **not** flush or sync; callers that need durability follow up with
/// [`File::sync_data`].
///
/// # Errors
///
/// Returns [`io::ErrorKind::InvalidInput`] when the payload exceeds
/// [`MAX_RECORD_LEN`], and propagates write errors.
pub fn write_record(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_RECORD_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("record of {} bytes exceeds the frame bound", payload.len()),
        ));
    }
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "record length overflows u32"))?;
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(&crc32(payload).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)
}

/// Reads the next framed record from `r`.
///
/// Returns `Ok(Some(payload))` for a well-formed record, `Ok(None)` at a
/// clean end of stream (EOF exactly on a record boundary), and
/// [`io::ErrorKind::InvalidData`] for a torn or corrupt record — a
/// partial header, a partial payload, an oversized length, or a CRC
/// mismatch.
///
/// # Errors
///
/// See above; genuine I/O errors are propagated unchanged.
pub fn read_record(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 8];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "torn record: truncated frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let crc = u32::from_be_bytes([header[4], header[5], header[6], header[7]]);
    if len > MAX_RECORD_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("corrupt record: length field {len} exceeds the frame bound"),
        ));
    }
    let mut payload = vec![0u8; len];
    let mut got = 0;
    while got < len {
        match r.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "torn record: truncated payload",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    if crc32(&payload) != crc {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "corrupt record: CRC mismatch",
        ));
    }
    Ok(Some(payload))
}

/// Reads every well-formed record from `r`, stopping silently at a torn
/// or corrupt tail (the crash-recovery read path: keep the durable
/// prefix, drop the partial append).
///
/// # Errors
///
/// Propagates genuine I/O errors; torn-tail `InvalidData` is not an
/// error here.
pub fn read_records(r: &mut impl Read) -> io::Result<Vec<Vec<u8>>> {
    let mut records = Vec::new();
    loop {
        match read_record(r) {
            Ok(Some(payload)) => records.push(payload),
            Ok(None) => return Ok(records),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => return Ok(records),
            Err(e) => return Err(e),
        }
    }
}

/// Flushes `file` contents to stable storage (`fsync` on the data).
///
/// # Errors
///
/// Propagates the sync failure.
pub fn sync_file(file: &File) -> io::Result<()> {
    file.sync_data()
}

/// Syncs the directory entry containing `path`, so a just-created or
/// just-renamed file survives a crash. A missing parent (relative paths
/// like `x.log`) syncs the current directory.
///
/// # Errors
///
/// Propagates open/sync failures.
pub fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()
}

/// Replaces the file at `path` with `bytes` crash-atomically: the bytes
/// are written to a sibling temporary file, synced, and renamed over the
/// destination, then the directory entry is synced. A crash at any point
/// leaves either the old complete file or the new complete file — never
/// a partial mix.
///
/// # Errors
///
/// Propagates I/O failures from any step.
pub fn atomic_replace(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        file.write_all(bytes)?;
        file.sync_data()?;
    }
    fs::rename(&tmp, path)?;
    sync_parent_dir(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn crc32_known_answers() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn records_round_trip() {
        let mut buf = Vec::new();
        write_record(&mut buf, b"first").unwrap();
        write_record(&mut buf, b"").unwrap();
        write_record(&mut buf, b"third record").unwrap();
        let records = read_records(&mut Cursor::new(&buf)).unwrap();
        assert_eq!(
            records,
            vec![b"first".to_vec(), Vec::new(), b"third record".to_vec()]
        );
    }

    #[test]
    fn a_record_is_one_write_of_the_same_bytes() {
        /// Counts `write` calls and keeps the bytes.
        struct Counting {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for Counting {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = Counting {
            writes: 0,
            bytes: Vec::new(),
        };
        write_record(&mut w, b"123456789").unwrap();
        write_record(&mut w, b"").unwrap();
        assert_eq!(w.writes, 2, "one write per record");
        // [len BE][crc BE][payload], with the CRC32 KAT of the payload.
        let mut expected = vec![0, 0, 0, 9, 0xCB, 0xF4, 0x39, 0x26];
        expected.extend_from_slice(b"123456789");
        expected.extend_from_slice(&[0; 8]);
        assert_eq!(w.bytes, expected);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let mut buf = Vec::new();
        write_record(&mut buf, b"keep me").unwrap();
        write_record(&mut buf, b"torn away").unwrap();
        for cut in 1..12 {
            let truncated = &buf[..buf.len() - cut];
            let records = read_records(&mut Cursor::new(truncated)).unwrap();
            assert_eq!(records, vec![b"keep me".to_vec()], "cut {cut}");
        }
    }

    #[test]
    fn corrupt_payload_fails_crc() {
        let mut buf = Vec::new();
        write_record(&mut buf, b"pristine").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        assert!(read_records(&mut Cursor::new(&buf)).unwrap().is_empty());
        let err = read_record(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn oversized_length_field_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        let err = read_record(&mut Cursor::new(&buf)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The reader must not have tried to allocate 4 GiB.
        assert!(read_records(&mut Cursor::new(&buf)).unwrap().is_empty());
    }

    #[test]
    fn atomic_replace_swaps_whole_files() {
        let dir = std::env::temp_dir().join(format!("qpdo-framing-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.txt");
        atomic_replace(&path, b"one").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"one");
        atomic_replace(&path, b"two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        assert!(!path.with_extension("txt.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
