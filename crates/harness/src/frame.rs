//! The one on-disk envelope every harness file format shares, and the only
//! code that reads or writes those files.
//!
//! Checkpoints (`DSTLCKPT`), the lease queue (`DSTLLEAS`) and the
//! experiment store (`DSTLSTOR`) each wrap their payload in the same frame:
//!
//! ```text
//! magic (8) | version u32 | payload_len u64 | fnv1a64(payload) u64 | payload
//! ```
//!
//! All integers are little-endian. The formats pass their magic and
//! version with a payload writer or reader over the [`crate::codec`]
//! primitives, and get back bytes or one typed [`FrameError`]. Decoding
//! verifies magic, version, length and checksum before the payload reader
//! sees a byte, and afterwards checks that it consumed the whole payload.
//! A lease-queue file holds exactly one frame ([`decode_one`]). Checkpoint
//! and store files are frame sequences ([`decode_seq`]) whose intact
//! prefix survives a torn tail; a checkpoint grows by [`append`]ing one
//! frame per write, and [`is_torn`] tells the torn last frame a crash
//! mid-append leaves from other damage.
//!
//! ## Atomic writes
//!
//! [`write_atomic`] writes to a *process-unique* sibling
//! (`<path>.tmp.<pid>`), fsyncs, then `rename(2)`s over the target. A
//! process killed at any instant leaves either the previous complete file
//! or the new one at `path`, never a torn hybrid — but it can leave the
//! orphaned scratch file behind if the kill lands between create and
//! rename; [`load`] reclaims those. The pid in the name keeps two
//! concurrent writers off one scratch file. Sweeping skips this process's
//! own suffix, but may delete a *different live* writer's scratch file, in
//! which case that writer's write fails with a typed I/O error (never
//! corruption, never a silent partial file) and the caller retries its
//! read–merge–write cycle.
//!
//! ## The file lock
//!
//! A read–modify–write of a shared file (the lease queue's claims, the
//! store's appends) holds [`lock`] on the file for the whole cycle, so two
//! writers never interleave, and neither sweeps the other's scratch file.
//! The lock is the kernel's (`File::lock`, `flock(2)` on Linux): it is
//! dropped when its holder exits, cleanly or by `kill -9`, so a dead
//! holder never stalls anyone.

use crate::codec::{fnv1a64, fnv1a64_prefixes, CodecError, Reader, Writer};
use std::fmt;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Header size: magic + version + payload length + checksum.
const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Why a frame could not be read or written. Every variant but `Io` names
/// the byte offset `at` where the damaged frame starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Reading or writing the file failed.
    Io {
        /// The file the operation was working on (target or scratch).
        path: PathBuf,
        /// The OS error's kind, so callers can tell a missing file apart.
        kind: io::ErrorKind,
        /// The OS error's message.
        message: String,
    },
    /// Fewer bytes than the fixed header remain at `at`.
    TooShort {
        /// Byte offset of the frame.
        at: usize,
        /// Bytes actually remaining there.
        len: usize,
    },
    /// The frame does not open with the format's magic.
    BadMagic {
        /// Byte offset of the frame.
        at: usize,
    },
    /// The frame's version is not the one this build reads.
    UnsupportedVersion {
        /// Byte offset of the frame.
        at: usize,
        /// Version found in the frame.
        found: u32,
        /// Version this build writes.
        supported: u32,
    },
    /// The payload is shorter than the header claims (torn or truncated).
    Truncated {
        /// Byte offset of the frame.
        at: usize,
        /// Payload bytes the header promised.
        expected: u64,
        /// Payload bytes actually present.
        found: u64,
    },
    /// Bytes follow the payload of a one-frame file, or the payload has
    /// bytes its reader did not consume.
    TrailingBytes {
        /// Byte offset of the frame.
        at: usize,
        /// Number of surplus bytes.
        extra: usize,
    },
    /// The payload checksum does not match (bit rot or torn write).
    ChecksumMismatch {
        /// Byte offset of the frame.
        at: usize,
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// The checksummed payload failed to decode (effectively unreachable,
    /// but still total).
    Decode {
        /// Byte offset of the frame.
        at: usize,
        /// The codec failure, at a byte offset within the payload.
        error: CodecError,
    },
}

impl FrameError {
    pub(crate) fn io(path: &Path, error: &io::Error) -> Self {
        FrameError::Io {
            path: path.to_path_buf(),
            kind: error.kind(),
            message: error.to_string(),
        }
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io { path, message, .. } => write!(f, "{}: {message}", path.display()),
            FrameError::TooShort { at, len } => write!(
                f,
                "frame at byte {at} cut off ({len} bytes < {HEADER_LEN}-byte header)"
            ),
            FrameError::BadMagic { at } => write!(f, "bad magic at byte {at} (wrong file type)"),
            FrameError::UnsupportedVersion {
                at,
                found,
                supported,
            } => write!(
                f,
                "frame at byte {at} has version {found} (this build reads {supported})"
            ),
            FrameError::Truncated {
                at,
                expected,
                found,
            } => write!(
                f,
                "frame at byte {at} truncated: header promises {expected} payload bytes, \
                 found {found}"
            ),
            FrameError::TrailingBytes { at, extra } => {
                write!(f, "frame at byte {at} has {extra} bytes past its payload")
            }
            FrameError::ChecksumMismatch {
                at,
                stored,
                computed,
            } => write!(
                f,
                "frame at byte {at} checksum mismatch: stored {stored:#018x}, \
                 computed {computed:#018x}"
            ),
            FrameError::Decode { at, error } => {
                write!(f, "frame at byte {at} payload corrupt: {error}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Encodes one frame. The header is reserved at the front of the payload
/// buffer and patched in place once the payload is written, so the payload
/// is never copied into a second buffer.
pub fn encode(magic: [u8; 8], version: u32, payload: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_bytes(&[0; HEADER_LEN]);
    payload(&mut w);
    let mut bytes = w.into_bytes();
    let body = bytes.get(HEADER_LEN..).unwrap_or(&[]);
    let mut header = Writer::new();
    header.put_bytes(&magic);
    header.put_u32(version);
    header.put_u64(body.len() as u64);
    header.put_u64(fnv1a64(body));
    for (slot, byte) in bytes.iter_mut().zip(header.into_bytes()) {
        *slot = byte;
    }
    bytes
}

/// Verifies the frame starting at byte `at` and returns its payload.
fn open(magic: [u8; 8], version: u32, bytes: &[u8], at: usize) -> Result<&[u8], FrameError> {
    let rest = bytes.get(at..).unwrap_or(&[]);
    let header = rest.get(..HEADER_LEN).ok_or(FrameError::TooShort {
        at,
        len: rest.len(),
    })?;
    if header.get(..8) != Some(&magic[..]) {
        return Err(FrameError::BadMagic { at });
    }
    let corrupt = |error| FrameError::Decode { at, error };
    let mut fields = Reader::new(header.get(8..).unwrap_or(&[]));
    let found = fields.u32().map_err(corrupt)?;
    if found != version {
        return Err(FrameError::UnsupportedVersion {
            at,
            found,
            supported: version,
        });
    }
    let len = fields.u64().map_err(corrupt)?;
    let stored = fields.u64().map_err(corrupt)?;
    let body = rest.get(HEADER_LEN..).unwrap_or(&[]);
    let payload = usize::try_from(len)
        .ok()
        .and_then(|len| body.get(..len))
        .ok_or(FrameError::Truncated {
            at,
            expected: len,
            found: body.len() as u64,
        })?;
    let computed = fnv1a64(payload);
    if computed != stored {
        return Err(FrameError::ChecksumMismatch {
            at,
            stored,
            computed,
        });
    }
    Ok(payload)
}

/// Runs the format's payload reader over a verified payload and checks that
/// it consumed every byte.
fn read_payload<T>(
    at: usize,
    payload: &[u8],
    read: impl FnOnce(&mut Reader<'_>) -> Result<T, CodecError>,
) -> Result<T, FrameError> {
    let mut r = Reader::new(payload);
    let value = read(&mut r).map_err(|error| FrameError::Decode { at, error })?;
    match r.remaining() {
        0 => Ok(value),
        extra => Err(FrameError::TrailingBytes { at, extra }),
    }
}

/// Decodes a file that must hold exactly one frame.
///
/// # Errors
/// Every damage to the envelope, and any payload the reader rejects or does
/// not consume, is a [`FrameError`]; no input can cause a panic.
pub fn decode_one<T>(
    magic: [u8; 8],
    version: u32,
    bytes: &[u8],
    read: impl FnOnce(&mut Reader<'_>) -> Result<T, CodecError>,
) -> Result<T, FrameError> {
    let payload = open(magic, version, bytes, 0)?;
    let extra = bytes.len().saturating_sub(HEADER_LEN + payload.len());
    if extra != 0 {
        return Err(FrameError::TrailingBytes { at: 0, extra });
    }
    read_payload(0, payload, read)
}

/// Decodes a sequence of frames: the payload of every intact leading frame
/// in file order, and the first damage, if any. A torn tail therefore costs
/// only the frames it touches.
pub fn decode_seq<T>(
    magic: [u8; 8],
    version: u32,
    bytes: &[u8],
    mut read: impl FnMut(&mut Reader<'_>) -> Result<T, CodecError>,
) -> (Vec<T>, Option<FrameError>) {
    let mut frames = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let frame = open(magic, version, bytes, at)
            .and_then(|payload| Ok((read_payload(at, payload, &mut read)?, payload.len())));
        match frame {
            Ok((value, len)) => {
                frames.push(value);
                at += HEADER_LEN + len;
            }
            Err(e) => return (frames, Some(e)),
        }
    }
    (frames, None)
}

/// Whether the bytes from `at` to the end are a torn frame of this format:
/// the start of a frame that a writer killed mid-[`append`] left behind.
/// As much of the magic and version as is there must match, and the frame
/// must end past the last byte. A whole frame whose length field is
/// damaged is not torn, and is told apart because some prefix of the bytes
/// after its header matches its checksum.
pub fn is_torn(magic: [u8; 8], version: u32, bytes: &[u8], at: usize) -> bool {
    let rest = bytes.get(at..).unwrap_or(&[]);
    let opening = [&magic[..], &version.to_le_bytes()].concat();
    if rest
        .iter()
        .zip(&opening)
        .any(|(byte, expected)| byte != expected)
    {
        return false;
    }
    let Some(header) = rest.get(..HEADER_LEN) else {
        return true; // cut inside the header
    };
    let mut fields = Reader::new(header.get(opening.len()..).unwrap_or(&[]));
    let (Ok(len), Ok(stored)) = (fields.u64(), fields.u64()) else {
        return false;
    };
    let body = rest.get(HEADER_LEN..).unwrap_or(&[]);
    len > body.len() as u64 && fnv1a64_prefixes(body).all(|hash| hash != stored)
}

/// The scratch sibling this process writes before renaming over `path`.
fn tmp_path(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_owned();
    s.push(format!(".tmp.{}", std::process::id()));
    PathBuf::from(s)
}

/// Writes `bytes` to `path` atomically: create `<path>.tmp.<pid>`, write,
/// fsync, rename over `path`.
///
/// # Errors
/// [`FrameError::Io`] naming the scratch file (create/write/fsync
/// failures) or the target (rename failures).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), FrameError> {
    let tmp = tmp_path(path);
    let err = |e| FrameError::io(&tmp, &e);
    let mut file = std::fs::File::create(&tmp).map_err(err)?;
    file.write_all(bytes).map_err(err)?;
    file.sync_all().map_err(err)?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(|e| FrameError::io(path, &e))
}

/// Appends `bytes` (whole frames) to the log at `path`, creating it if it
/// is missing, then fsyncs. A process killed mid-append can leave a torn
/// last frame behind, which [`decode_seq`] reports as damage after the
/// intact prefix.
///
/// # Errors
/// [`FrameError::Io`] naming `path` (open, write or fsync failures).
pub fn append(path: &Path, bytes: &[u8]) -> Result<(), FrameError> {
    let err = |e| FrameError::io(path, &e);
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(err)?;
    file.write_all(bytes).map_err(err)?;
    file.sync_all().map_err(err)
}

/// Removes orphaned scratch files next to `path`: every sibling whose name
/// starts with `<file name>.tmp` except this process's own, including
/// legacy fixed-name `<path>.tmp` leftovers, and returns how many it
/// reclaimed. Best effort: a file it cannot list or remove stays behind as
/// debris, which never affects reading the intact file.
fn sweep_stale_tmp(path: &Path) -> usize {
    let parent = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    let (Some(name), Ok(entries)) = (path.file_name(), std::fs::read_dir(parent)) else {
        return 0;
    };
    let stale_prefix = format!("{}.tmp", name.to_string_lossy());
    let own = tmp_path(path);
    let mut removed = 0;
    for candidate in entries.filter_map(Result::ok).map(|entry| entry.path()) {
        let stale = candidate
            .file_name()
            .is_some_and(|n| n.to_string_lossy().starts_with(&stale_prefix));
        if stale && candidate != own && std::fs::remove_file(&candidate).is_ok() {
            removed += 1;
        }
    }
    removed
}

/// Blocks until this caller holds the exclusive lock of `path`, taken on
/// the sibling `<path>.lock` (created if missing, never truncated); the
/// returned file is the guard, and dropping it releases the lock. Every
/// call opens its own handle, so threads of one process exclude each other
/// too. The lock file stays on disk: deleting a lock file that others may
/// hold would let two holders in.
///
/// # Errors
/// [`FrameError::Io`] naming `<path>.lock` (open or lock failures).
pub fn lock(path: &Path) -> Result<std::fs::File, FrameError> {
    let mut s = path.as_os_str().to_owned();
    s.push(".lock");
    let path = PathBuf::from(s);
    let err = |e| FrameError::io(&path, &e);
    let file = std::fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(&path)
        .map_err(err)?;
    file.lock().map_err(err)?;
    Ok(file)
}

/// Reads the frame file at `path`, first sweeping any orphaned scratch
/// files a killed writer left beside it.
///
/// # Errors
/// [`FrameError::Io`], whose `kind` is `NotFound` for a missing file.
pub fn load(path: &Path) -> Result<Vec<u8>, FrameError> {
    sweep_stale_tmp(path);
    std::fs::read(path).map_err(|e| FrameError::io(path, &e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CHECKPOINT_MAGIC, CHECKPOINT_VERSION, LEASE_MAGIC, LEASE_VERSION};
    use crate::{STORE_MAGIC, STORE_VERSION};
    use proptest::prelude::*;

    /// The `(magic, version)` of the three formats that share the envelope.
    const FORMATS: [([u8; 8], u32); 3] = [
        (CHECKPOINT_MAGIC, CHECKPOINT_VERSION),
        (LEASE_MAGIC, LEASE_VERSION),
        (STORE_MAGIC, STORE_VERSION),
    ];

    fn frame((magic, version): ([u8; 8], u32), payload: &[u8]) -> Vec<u8> {
        encode(magic, version, |w| w.put_bytes(payload))
    }

    /// A payload reader that takes every remaining byte.
    fn rest(r: &mut Reader<'_>) -> Result<Vec<u8>, CodecError> {
        let n = r.remaining();
        (0..n).map(|_| r.u8()).collect()
    }

    /// The offset of the damaged frame an error names.
    fn offset(e: &FrameError) -> Option<usize> {
        match *e {
            FrameError::Io { .. } => None,
            FrameError::TooShort { at, .. }
            | FrameError::BadMagic { at }
            | FrameError::UnsupportedVersion { at, .. }
            | FrameError::Truncated { at, .. }
            | FrameError::TrailingBytes { at, .. }
            | FrameError::ChecksumMismatch { at, .. }
            | FrameError::Decode { at, .. } => Some(at),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every way a frame can be damaged is one typed error at the
        /// damaged frame's offset, for every format's magic.
        #[test]
        fn damaged_frames_are_typed_errors_at_their_offset(
            which in 0usize..3,
            payload in proptest::collection::vec(any::<u8>(), 0..48),
            cut in any::<usize>(),
            flip in any::<usize>(),
            bit in 0u8..8,
            extra in 1usize..16,
            skew in any::<u32>(),
        ) {
            let format = FORMATS[which];
            let (magic, version) = format;
            let good = frame(format, &payload);
            prop_assert_eq!(good.len(), HEADER_LEN + payload.len());
            prop_assert_eq!(decode_one(magic, version, &good, rest), Ok(payload.clone()));

            // Truncation: a cut header, or a payload shorter than promised.
            let cut = cut % good.len();
            let expected = if cut < HEADER_LEN {
                FrameError::TooShort { at: 0, len: cut }
            } else {
                FrameError::Truncated {
                    at: 0,
                    expected: payload.len() as u64,
                    found: (cut - HEADER_LEN) as u64,
                }
            };
            prop_assert_eq!(decode_one(magic, version, &good[..cut], rest), Err(expected));

            // A bit flip anywhere is refused: magic and version by value,
            // the length by the checksum or the file size, the checksum
            // and payload by the checksum.
            let mut flipped = good.clone();
            let pos = flip % flipped.len();
            flipped[pos] ^= 1 << bit;
            let err = decode_one(magic, version, &flipped, rest).unwrap_err();
            let typed = match pos {
                0..=7 => err == FrameError::BadMagic { at: 0 },
                8..=11 => matches!(err, FrameError::UnsupportedVersion { at: 0, .. }),
                12..=19 => offset(&err) == Some(0),
                _ => matches!(err, FrameError::ChecksumMismatch { at: 0, .. }),
            };
            prop_assert!(typed, "flip at {} gave {:?}", pos, err);

            // Bytes past a one-frame file's payload, or payload bytes the
            // reader leaves unread.
            let mut long = good.clone();
            long.extend(std::iter::repeat_n(0xAA, extra));
            prop_assert_eq!(
                decode_one(magic, version, &long, rest),
                Err(FrameError::TrailingBytes { at: 0, extra })
            );
            if !payload.is_empty() {
                prop_assert_eq!(
                    decode_one(magic, version, &good, |_| Ok(())),
                    Err(FrameError::TrailingBytes { at: 0, extra: payload.len() })
                );
            }

            // A version this build does not read.
            let found = if skew == version { skew ^ 1 } else { skew };
            let mut skewed = good.clone();
            skewed[8..12].copy_from_slice(&found.to_le_bytes());
            prop_assert_eq!(
                decode_one(magic, version, &skewed, rest),
                Err(FrameError::UnsupportedVersion { at: 0, found, supported: version })
            );

            // Another format's file.
            for &(other, other_version) in FORMATS.iter().filter(|(m, _)| *m != magic) {
                prop_assert_eq!(
                    decode_one(other, other_version, &good, rest),
                    Err(FrameError::BadMagic { at: 0 })
                );
            }

            // A sequence salvages its intact prefix and names the torn
            // frame's offset; an intact sequence decodes whole.
            let second = frame(format, &[7; 5]);
            let whole = [good.clone(), second.clone()].concat();
            prop_assert_eq!(
                decode_seq(magic, version, &whole, rest),
                (vec![payload.clone(), vec![7; 5]], None)
            );
            let torn = cut % second.len();
            let (frames, damage) = decode_seq(magic, version, &whole[..good.len() + torn], rest);
            prop_assert_eq!(frames, vec![payload.clone()]);
            let damage_at = damage.as_ref().and_then(offset);
            prop_assert_eq!(damage_at, (torn > 0).then_some(good.len()));
        }
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("distill-frame-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_then_load_round_trips_and_leaves_no_tmp() {
        let dir = scratch_dir("round-trip");
        let target = dir.join("data.bin");
        write_atomic(&target, b"hello").unwrap();
        assert_eq!(load(&target).unwrap(), b"hello");
        write_atomic(&target, b"world").unwrap();
        assert_eq!(load(&target).unwrap(), b"world");
        let leftovers: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(leftovers.len(), 1, "only the target may remain");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every cut of a frame appended behind a whole one is torn. A whole
    /// frame is not, nor is one whose length field was raised, nor the cut
    /// start of another format's or another version's frame.
    #[test]
    fn only_a_cut_frame_is_torn() {
        for (i, format) in FORMATS.into_iter().enumerate() {
            let (magic, version) = format;
            let first = frame(format, b"first frame");
            let log = [first.clone(), frame(format, b"the frame in flight")].concat();
            for cut in first.len()..log.len() {
                assert!(is_torn(magic, version, &log[..cut], first.len()), "{cut}");
            }
            assert!(!is_torn(magic, version, &log, first.len()));
            for at in [0, first.len()] {
                let mut raised = log.clone();
                raised[at + 16] ^= 1; // payload length + 2^32
                assert!(!is_torn(magic, version, &raised, at), "{at}");
            }
            let other_magic = frame(FORMATS[(i + 1) % FORMATS.len()], b"x");
            let other_version = frame((magic, version + 1), b"x");
            for (foreign, cut) in [(&other_magic, 5), (&other_version, 10)] {
                assert!(!is_torn(magic, version, &foreign[..cut], 0));
                assert!(!is_torn(magic, version, foreign, 0));
            }
        }
    }

    #[test]
    fn append_creates_then_extends_the_log() {
        let dir = scratch_dir("append");
        let target = dir.join("log.bin");
        let format = FORMATS[0];
        let (magic, version) = format;
        append(&target, &frame(format, b"one")).unwrap();
        append(&target, &frame(format, b"two")).unwrap();
        let bytes = load(&target).unwrap();
        assert_eq!(
            decode_seq(magic, version, &bytes, rest),
            (vec![b"one".to_vec(), b"two".to_vec()], None)
        );
        assert!(append(&dir.join("missing").join("log.bin"), b"x").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The kill-mid-write scenario: a writer died between creating its
    /// scratch file and renaming it. The next load sweeps the orphan.
    #[test]
    fn load_reclaims_orphans_from_dead_writers() {
        let dir = scratch_dir("sweep");
        let target = dir.join("store.bin");
        write_atomic(&target, b"good").unwrap();
        // Orphans from two "dead" writers: a pid-suffixed scratch file (the
        // pid is not ours) and a legacy fixed-name one.
        let orphan_pid = dir.join("store.bin.tmp.999999999");
        let orphan_legacy = dir.join("store.bin.tmp");
        std::fs::write(&orphan_pid, b"torn").unwrap();
        std::fs::write(&orphan_legacy, b"torn").unwrap();
        // An unrelated sibling must survive.
        let unrelated = dir.join("store.bin.bak");
        std::fs::write(&unrelated, b"keep").unwrap();
        assert_eq!(sweep_stale_tmp(&target), 2);
        assert!(!orphan_pid.exists());
        assert!(!orphan_legacy.exists());
        assert!(unrelated.exists());
        std::fs::write(&orphan_pid, b"torn").unwrap();
        assert_eq!(load(&target).unwrap(), b"good");
        assert!(!orphan_pid.exists());
        // Sweeping again finds nothing.
        assert_eq!(sweep_stale_tmp(&target), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_skips_this_processes_own_scratch_file() {
        let dir = scratch_dir("own");
        let target = dir.join("store.bin");
        let own = tmp_path(&target);
        std::fs::write(&own, b"in flight").unwrap();
        assert_eq!(sweep_stale_tmp(&target), 0);
        assert!(own.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn io_errors_keep_their_kind_and_path() {
        let missing = std::env::temp_dir()
            .join(format!("distill-frame-none-{}", std::process::id()))
            .join("x.frame");
        assert_eq!(sweep_stale_tmp(&missing), 0);
        let err = load(&missing).unwrap_err();
        assert!(matches!(
            err,
            FrameError::Io {
                kind: io::ErrorKind::NotFound,
                ..
            }
        ));
        assert!(err.to_string().contains("distill-frame-none"));
        let err = write_atomic(&missing, b"x").unwrap_err();
        assert!(err.to_string().contains("distill-frame-none"));
    }
}
