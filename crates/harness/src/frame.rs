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
//! Lease-queue and store files hold exactly one frame ([`decode_one`]). A
//! checkpoint file is a frame sequence ([`decode_seq`]) whose intact prefix
//! survives a torn tail; it grows by [`append`]ing one frame per write, and
//! [`is_torn`] tells the torn last frame a crash mid-append leaves from
//! other damage.
//!
//! ## One write path: the lock holder's
//!
//! A harness file is replaced only through the guard [`lock`] returns:
//! [`FileLock::write`] writes the fixed scratch sibling `<path>.tmp`,
//! fsyncs it and `rename(2)`s it over the target. The lock is the
//! kernel's (`File::lock`, `flock(2)` on Linux) on the sibling
//! `<path>.lock`, so only its holder ever touches `<path>.tmp`, and a
//! read–modify–write of a shared file (the lease queue's claims, the
//! store's appends) holds it for the whole cycle, so two writers never
//! interleave. The kernel drops the lock when its holder exits, cleanly or
//! by `kill -9`, so a dead holder never stalls anyone. A holder killed at
//! any instant leaves either the previous complete file or the new one at
//! `path`, never a torn hybrid; a scratch file it leaves behind is
//! truncated and reused by the next holder.
//!
//! [`load`] is a plain read. It never changes a file, so any number of
//! readers may run beside a writer and see one whole version or the other.
use crate::codec::{fnv1a64, fnv1a64_prefixes, CodecError, Reader, Writer};
use std::fmt;
use std::fs::File;
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

/// `path` with `suffix` appended to its file name.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut s = path.as_os_str().to_owned();
    s.push(suffix);
    PathBuf::from(s)
}

/// The exclusive lock of one harness file, held until the guard is
/// dropped, and the only way to replace that file.
#[derive(Debug)]
pub struct FileLock {
    /// The locked file (not the lock file).
    path: PathBuf,
    /// The open `<path>.lock`, which holds the kernel lock.
    _lock: File,
}

impl FileLock {
    /// Replaces the locked file with `bytes` atomically: write the scratch
    /// sibling `<path>.tmp` (truncating whatever a killed holder left
    /// there), fsync it, rename it over `path`.
    ///
    /// # Errors
    /// [`FrameError::Io`] naming the scratch file (create, write or fsync
    /// failures) or the target (rename failures).
    pub fn write(&self, bytes: &[u8]) -> Result<(), FrameError> {
        let tmp = sibling(&self.path, ".tmp");
        let err = |e| FrameError::io(&tmp, &e);
        let mut file = File::create(&tmp).map_err(err)?;
        file.write_all(bytes).map_err(err)?;
        file.sync_all().map_err(err)?;
        drop(file);
        std::fs::rename(&tmp, &self.path).map_err(|e| FrameError::io(&self.path, &e))
    }
}

/// Blocks until this caller holds the exclusive lock of `path`, taken on
/// the sibling `<path>.lock` (created if missing, never truncated);
/// dropping the returned guard releases it. Every call opens its own
/// handle, so threads of one process exclude each other too. The lock
/// file stays on disk: deleting a lock file that others may hold would let
/// two holders in.
///
/// # Errors
/// [`FrameError::Io`] naming `<path>.lock` (open or lock failures).
pub fn lock(path: &Path) -> Result<FileLock, FrameError> {
    let lock_path = sibling(path, ".lock");
    let err = |e| FrameError::io(&lock_path, &e);
    let file = std::fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(&lock_path)
        .map_err(err)?;
    file.lock().map_err(err)?;
    Ok(FileLock {
        path: path.to_path_buf(),
        _lock: file,
    })
}

/// Reads the frame file at `path`. It takes no lock and changes nothing:
/// every write renames a whole file into place, so a read sees one whole
/// version.
///
/// # Errors
/// [`FrameError::Io`], whose `kind` is `NotFound` for a missing file.
pub fn load(path: &Path) -> Result<Vec<u8>, FrameError> {
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

    /// The file names in `dir`, sorted.
    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn write_then_load_round_trips_and_leaves_no_tmp() {
        let dir = scratch_dir("round-trip");
        let target = dir.join("data.bin");
        let guard = lock(&target).unwrap();
        guard.write(b"hello").unwrap();
        assert_eq!(load(&target).unwrap(), b"hello");
        guard.write(b"world").unwrap();
        assert_eq!(load(&target).unwrap(), b"world");
        drop(guard);
        assert_eq!(names(&dir), ["data.bin", "data.bin.lock"]);
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

    /// A holder killed mid-write leaves its scratch file `<path>.tmp`
    /// behind. Loads read the intact file and delete nothing; the next
    /// holder's write truncates and reuses the scratch file, so none is
    /// left after it. An older build's `<path>.tmp.<pid>` is nobody's to
    /// delete. The same holds through every format's own write and load.
    #[test]
    fn a_killed_holders_scratch_file_is_reused_by_the_next_write() {
        use crate::{Checkpoint, ExperimentRecord, ExperimentStore, LeaseQueue, RowKind};
        let dir = scratch_dir("orphan");
        let check = |name: &str, write: &dyn Fn(&Path), read: &dyn Fn(&Path)| {
            let path = dir.join(name);
            write(&path);
            let intact = load(&path).unwrap();
            let (tmp, legacy) = (sibling(&path, ".tmp"), sibling(&path, ".tmp.999999999"));
            std::fs::write(&tmp, b"torn half-write").unwrap();
            std::fs::write(&legacy, b"torn half-write").unwrap();
            read(&path);
            assert!(
                tmp.exists() && legacy.exists(),
                "{name}: a load deleted a file"
            );
            write(&path);
            assert!(!tmp.exists(), "{name}: the write left its scratch file");
            assert!(legacy.exists(), "{name}: the write deleted a foreign file");
            assert_eq!(load(&path).unwrap(), intact, "{name}");
            read(&path);
        };
        check(
            "data.bin",
            &|p| lock(p).unwrap().write(b"whole").unwrap(),
            &|p| {
                assert_eq!(load(p).unwrap(), b"whole");
            },
        );
        let queue = LeaseQueue::new(7, 10, 4, 2).unwrap();
        check("sweep.queue", &|p| queue.write_atomic(p).unwrap(), &|p| {
            assert_eq!(LeaseQueue::load(p).unwrap(), queue);
        });
        let checkpoint = Checkpoint {
            fingerprint: 7,
            total_trials: 10,
            completed: Vec::new(),
        };
        check(
            "sweep.ckpt",
            &|p| checkpoint.write_atomic(p).unwrap(),
            &|p| {
                assert_eq!(Checkpoint::load(p).unwrap(), checkpoint);
            },
        );
        let record = ExperimentRecord {
            bench_id: "x/y".into(),
            commit: "c0".into(),
            timestamp: 1,
            kind: RowKind::Timed,
            unit: "ns".into(),
            mean: 2.0,
            median: 2.0,
            min: 1.0,
            samples: 3,
        };
        let append = |p: &Path| {
            ExperimentStore::append(p, std::slice::from_ref(&record)).unwrap();
        };
        check("bench.store", &append, &|p| {
            let store = ExperimentStore::load(p).unwrap();
            assert_eq!(store.records(), std::slice::from_ref(&record));
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn io_errors_keep_their_kind_and_path() {
        let missing = std::env::temp_dir()
            .join(format!("distill-frame-none-{}", std::process::id()))
            .join("x.frame");
        let err = load(&missing).unwrap_err();
        assert!(matches!(
            err,
            FrameError::Io {
                kind: io::ErrorKind::NotFound,
                ..
            }
        ));
        assert!(err.to_string().contains("distill-frame-none"));
        let err = lock(&missing).unwrap_err();
        assert!(err.to_string().contains("x.frame.lock"));
        // A write names the scratch file it could not create.
        let dir = scratch_dir("write-error");
        let target = dir.join("x.frame");
        std::fs::create_dir(dir.join("x.frame.tmp")).unwrap();
        let err = lock(&target).unwrap().write(b"x").unwrap_err();
        assert!(err.to_string().contains("x.frame.tmp"), "{err}");
        assert!(!target.exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
