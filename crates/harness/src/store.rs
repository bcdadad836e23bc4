//! Append-only experiment-results store and the noise-aware perf trend
//! gate.
//!
//! Every PR so far regenerated the `BENCH_*.json` files in place, so the
//! repository had perf *points* but no perf *trajectory*. This module turns
//! the per-PR Criterion harness into the thing a production service
//! actually monitors: measurements accumulate in a store keyed by
//! `(bench id, commit, timestamp)`, and CI fails on regression against the
//! *stored per-bench baseline* instead of a hardcoded multiplier
//! re-blessed each PR.
//!
//! ## File format
//!
//! A store file is one [`crate::frame`] with magic `DSTLSTOR`. Its payload
//! is `count u64 | count × record` with each record `bench_id str | commit
//! str | timestamp u64 | kind u8 | unit str | mean f64 | median f64 | min
//! f64 | samples u64` (strings length-prefixed, floats as raw IEEE bits —
//! NaN-preserving). Decoding is total: any byte sequence either decodes or
//! yields a typed [`StoreError`], never a panic (property-tested in
//! `tests/store_corruption.rs`); an empty file, a torn one and one with a
//! second frame behind the first are all refused.
//!
//! ## Set semantics, canonical bytes
//!
//! In memory a store is a canonical *set* of records: sorted by a total
//! order (floats via `f64::total_cmp`) and deduplicated bit-exactly. An
//! append set-unions its records into the store under the store's
//! [`frame::lock`] and writes the result back as one canonical frame
//! through the lock's guard, so concurrent appends queue behind one
//! another and lose nothing, and a load only reads. The same record set
//! therefore always produces bit-identical store bytes, no matter how many
//! appends, in what order, or from how many processes it arrived.
//!
//! ## The trend gate
//!
//! [`TrendGate`] compares a current run against the stored per-bench best:
//! a bench regresses only when **both** its fastest sample (`min_ns`) and
//! its `median_ns` exceed the stored baselines by the relative tolerance
//! band — never the mean, which outliers own. Rows with
//! `kind = "value"` (allocation counts, posts/sec, ok-flags) are *never*
//! compared in nanosecond terms, and degenerate series (zero, non-finite)
//! yield [`TrendStatus::Indeterminate`] instead of NaN verdicts.

use crate::codec::{CodecError, Reader, Writer};
use crate::frame::{self, FrameError};
use std::cmp::Ordering;
use std::fmt;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// File magic: identifies a distill experiment store.
pub const STORE_MAGIC: [u8; 8] = *b"DSTLSTOR";

/// Current store format version. Bump on any layout change; other versions
/// are rejected with [`FrameError::UnsupportedVersion`] rather than
/// misread.
pub const STORE_VERSION: u32 = 1;

/// Minimum encoded size of one record (empty strings): three length
/// prefixes, timestamp, kind tag, three floats, samples.
const MIN_RECORD_BYTES: usize = 8 + 8 + 8 + 1 + 8 + 8 * 3 + 8;

/// How a bench row was produced — the field the old `BENCH_*.json` schema
/// lacked, which made raw reported values (`samples: 1`, `mean_ns: 0.0`)
/// indistinguishable from wall-clock measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RowKind {
    /// A wall-clock measurement in nanoseconds (mean/median/min over
    /// samples). Eligible for the trend gate.
    Timed,
    /// A raw reported value (allocation count, throughput, boolean flag)
    /// whose unit is whatever the row's `unit` field says. Never compared
    /// in nanosecond terms.
    Value,
}

impl RowKind {
    /// The JSON spelling (`"timed"` / `"value"`).
    pub fn as_str(self) -> &'static str {
        match self {
            RowKind::Timed => "timed",
            RowKind::Value => "value",
        }
    }

    /// Parses the JSON spelling.
    pub fn parse(s: &str) -> Option<RowKind> {
        match s {
            "timed" => Some(RowKind::Timed),
            "value" => Some(RowKind::Value),
            _ => None,
        }
    }

    fn tag(self) -> u8 {
        match self {
            RowKind::Timed => 0,
            RowKind::Value => 1,
        }
    }

    fn from_tag(tag: u8, at: usize) -> Result<RowKind, CodecError> {
        match tag {
            0 => Ok(RowKind::Timed),
            1 => Ok(RowKind::Value),
            tag => Err(CodecError::BadTag {
                at,
                tag,
                what: "row kind",
            }),
        }
    }
}

impl fmt::Display for RowKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One stored measurement: a bench row pinned to the commit and timestamp
/// it was recorded at.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// `group/function` bench identifier.
    pub bench_id: String,
    /// Commit label the measurement belongs to.
    pub commit: String,
    /// Caller-supplied timestamp (seconds; `0` when unknown). Metadata
    /// only — the gate never orders by it.
    pub timestamp: u64,
    /// Timed measurement or raw reported value.
    pub kind: RowKind,
    /// Unit of the three value fields (`"ns"` for timed rows).
    pub unit: String,
    /// Mean over samples (reported verbatim for value rows).
    pub mean: f64,
    /// Median over samples.
    pub median: f64,
    /// Fastest (or verbatim) sample — the noise-robust statistic the gate
    /// compares.
    pub min: f64,
    /// Number of samples behind the row.
    pub samples: u64,
}

impl ExperimentRecord {
    /// The store key: records are grouped and queried by
    /// `(bench id, commit, timestamp)`.
    pub fn key(&self) -> (&str, &str, u64) {
        (&self.bench_id, &self.commit, self.timestamp)
    }

    /// Total order over full records (floats by `total_cmp`), the canonical
    /// store order. Bit-equal records — and only those — compare `Equal`,
    /// so set-union dedup is exact.
    pub fn cmp_full(&self, other: &ExperimentRecord) -> Ordering {
        self.bench_id
            .cmp(&other.bench_id)
            .then_with(|| self.commit.cmp(&other.commit))
            .then_with(|| self.timestamp.cmp(&other.timestamp))
            .then_with(|| self.kind.cmp(&other.kind))
            .then_with(|| self.unit.cmp(&other.unit))
            .then_with(|| self.mean.total_cmp(&other.mean))
            .then_with(|| self.median.total_cmp(&other.median))
            .then_with(|| self.min.total_cmp(&other.min))
            .then_with(|| self.samples.cmp(&other.samples))
    }

    fn encode_into(&self, w: &mut Writer) {
        w.put_str(&self.bench_id);
        w.put_str(&self.commit);
        w.put_u64(self.timestamp);
        w.put_u8(self.kind.tag());
        w.put_str(&self.unit);
        w.put_f64(self.mean);
        w.put_f64(self.median);
        w.put_f64(self.min);
        w.put_u64(self.samples);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<ExperimentRecord, CodecError> {
        let bench_id = r.str()?;
        let commit = r.str()?;
        let timestamp = r.u64()?;
        let kind_at = r.position();
        let kind = RowKind::from_tag(r.u8()?, kind_at)?;
        let unit = r.str()?;
        let mean = r.f64()?;
        let median = r.f64()?;
        let min = r.f64()?;
        let samples = r.u64()?;
        Ok(ExperimentRecord {
            bench_id,
            commit,
            timestamp,
            kind,
            unit,
            mean,
            median,
            min,
            samples,
        })
    }
}

/// Why a store could not be loaded, decoded, or parsed from bench JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// The file could not be read or written, or its frame is damaged.
    Frame(FrameError),
    /// A `BENCH_*.json` document failed to parse.
    Json {
        /// Byte offset where parsing stopped.
        at: usize,
        /// What went wrong.
        message: String,
    },
    /// A bench row is missing a required field — most likely a pre-schema
    /// dump without `kind`/`unit`, which the gate refuses to guess about.
    MissingField {
        /// The row's `id` (or `"<row>"` when even that is absent).
        id: String,
        /// The absent (or mistyped) field.
        field: &'static str,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Frame(e) => write!(f, "store: {e}"),
            StoreError::Json { at, message } => {
                write!(f, "bench JSON parse error at byte {at}: {message}")
            }
            StoreError::MissingField { id, field } => write!(
                f,
                "bench row {id:?} is missing field {field:?} — regenerate the JSON with the \
                 typed row schema (kind/unit) before appending"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<FrameError> for StoreError {
    fn from(e: FrameError) -> Self {
        StoreError::Frame(e)
    }
}

/// What [`ExperimentStore::append`] did.
#[derive(Debug, Clone, PartialEq)]
pub struct AppendOutcome {
    /// The merged store as written back to disk.
    pub store: ExperimentStore,
    /// Records present before the append.
    pub existing: usize,
    /// New records this append contributed (0 when every record was
    /// already present — appends are idempotent).
    pub added: usize,
}

/// The canonical in-memory store: a sorted, bit-exactly deduplicated set
/// of [`ExperimentRecord`]s.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExperimentStore {
    records: Vec<ExperimentRecord>,
}

impl ExperimentStore {
    /// An empty store.
    pub fn new() -> Self {
        ExperimentStore::default()
    }

    /// Builds a store from arbitrary records: sorts by the total order and
    /// drops bit-exact duplicates.
    pub fn from_records(mut records: Vec<ExperimentRecord>) -> Self {
        records.sort_by(ExperimentRecord::cmp_full);
        records.dedup_by(|a, b| a.cmp_full(b) == Ordering::Equal);
        ExperimentStore { records }
    }

    /// The records, in canonical order.
    pub fn records(&self) -> &[ExperimentRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Set-unions `new` records into the store, keeping it canonical.
    /// Returns how many were actually new.
    pub fn merge_records<I>(&mut self, new: I) -> usize
    where
        I: IntoIterator<Item = ExperimentRecord>,
    {
        let before = self.records.len();
        self.records.extend(new);
        let merged = ExperimentStore::from_records(std::mem::take(&mut self.records));
        self.records = merged.records;
        self.records.len() - before
    }

    /// Encodes the store as one canonical frame. Equal record sets always
    /// produce identical bytes.
    pub fn encode(&self) -> Vec<u8> {
        frame::encode(STORE_MAGIC, STORE_VERSION, |w| {
            w.put_u64(self.records.len() as u64);
            for record in &self.records {
                record.encode_into(w);
            }
        })
    }

    /// Decodes a store file: its one frame is verified before a payload
    /// byte is interpreted.
    ///
    /// # Errors
    /// Every corruption mode maps to a [`StoreError`] variant; no input can
    /// cause a panic.
    pub fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let records = frame::decode_one(STORE_MAGIC, STORE_VERSION, bytes, |r| {
            let count = r.seq_len(MIN_RECORD_BYTES)?;
            (0..count)
                .map(|_| ExperimentRecord::decode_from(r))
                .collect::<Result<Vec<_>, _>>()
        })?;
        Ok(ExperimentStore::from_records(records))
    }

    /// Opens a store for reading or appending: [`load`], except that a
    /// missing file is an empty store (the first append creates it).
    ///
    /// [`load`]: ExperimentStore::load
    ///
    /// # Errors
    /// As [`load`](ExperimentStore::load), minus the missing file.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        match ExperimentStore::load(path) {
            Err(StoreError::Frame(FrameError::Io {
                kind: io::ErrorKind::NotFound,
                ..
            })) => Ok(ExperimentStore::new()),
            loaded => loaded,
        }
    }

    /// Loads an existing store. A plain read (see [`frame::load`]): it
    /// takes no lock and sees the store before or after any concurrent
    /// append, never between. A missing file is an error (use [`open`] for
    /// the append path).
    ///
    /// [`open`]: ExperimentStore::open
    ///
    /// # Errors
    /// [`FrameError::Io`] including for a missing file, decode variants for
    /// corrupt ones.
    pub fn load(path: &Path) -> Result<Self, StoreError> {
        ExperimentStore::decode(&frame::load(path)?)
    }

    /// The append operation: under the store's [`frame::lock`], open,
    /// set-union the new records, and write back atomically through the
    /// lock's guard. Appending the same records twice is a no-op the
    /// second time, so the store bytes are reproducible across re-runs,
    /// and concurrent appends queue behind one another, so none loses
    /// another's records.
    ///
    /// # Errors
    /// Any [`StoreError`] from the lock, the open or the write-back.
    pub fn append(path: &Path, new: &[ExperimentRecord]) -> Result<AppendOutcome, StoreError> {
        let lock = frame::lock(path)?;
        let mut store = ExperimentStore::open(path)?;
        let existing = store.len();
        let added = store.merge_records(new.iter().cloned());
        lock.write(&store.encode())?;
        Ok(AppendOutcome {
            store,
            existing,
            added,
        })
    }
}

// ---------------------------------------------------------------------------
// Bench JSON: the typed-row schema emitted by the criterion shim.
// ---------------------------------------------------------------------------

/// One row of a `BENCH_*.json` dump (the criterion shim's typed schema).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// `group/function` identifier.
    pub id: String,
    /// Timed measurement or raw reported value.
    pub kind: RowKind,
    /// Unit of the three value fields.
    pub unit: String,
    /// Mean nanoseconds (or raw value).
    pub mean_ns: f64,
    /// Median nanoseconds (or raw value).
    pub median_ns: f64,
    /// Minimum nanoseconds (or raw value).
    pub min_ns: f64,
    /// Samples behind the row.
    pub samples: u64,
}

impl BenchRow {
    /// Pins the row to a commit and timestamp, producing a store record.
    pub fn into_record(self, commit: &str, timestamp: u64) -> ExperimentRecord {
        ExperimentRecord {
            bench_id: self.id,
            commit: commit.to_string(),
            timestamp,
            kind: self.kind,
            unit: self.unit,
            mean: self.mean_ns,
            median: self.median_ns,
            min: self.min_ns,
            samples: self.samples,
        }
    }
}

/// A parsed JSON value — the minimal subset the bench dumps use. The
/// workspace has no JSON dependency, so the reader is hand-rolled (like
/// [`json_escape`], the writers' escaper) and total: depth-limited, no
/// panics.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn field<'a>(&'a self, name: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

/// Nesting deeper than this is rejected (the bench schema needs 3 levels;
/// the limit keeps hostile input from exhausting the stack).
const JSON_MAX_DEPTH: usize = 32;

impl<'a> JsonParser<'a> {
    fn new(text: &'a str) -> Self {
        JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> StoreError {
        StoreError::Json {
            at: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), StoreError> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", char::from(b))))
        }
    }

    fn parse_document(&mut self) -> Result<Json, StoreError> {
        let value = self.parse_value(0)?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing content after the document"));
        }
        Ok(value)
    }

    fn parse_value(&mut self, depth: usize) -> Result<Json, StoreError> {
        if depth > JSON_MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Json::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Json::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Json) -> Result<Json, StoreError> {
        if self.bytes.get(self.pos..self.pos + word.len()) == Some(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, StoreError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(self.bytes.get(start..self.pos).unwrap_or(&[]))
            .map_err(|_| self.err("invalid number bytes"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number {text:?}")))
    }

    fn parse_string(&mut self) -> Result<String, StoreError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = self.bytes.get(self.pos..self.pos + 4);
                        let code = hex
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .and_then(char::from_u32)
                            .ok_or_else(|| self.err("bad \\u escape"))?;
                        self.pos += 4;
                        out.push(code);
                    }
                    _ => return Err(self.err("bad escape")),
                },
                Some(byte) if byte < 0x80 => out.push(char::from(byte)),
                Some(byte) => {
                    // Re-decode the multi-byte UTF-8 sequence in place (the
                    // input is a &str, so the bytes are valid UTF-8).
                    let len = match byte {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    let chunk = self.bytes.get(start..start + len).unwrap_or(&[]);
                    let s = std::str::from_utf8(chunk)
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    out.push_str(s);
                    self.pos = start + len;
                }
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<Json, StoreError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value(depth + 1)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<Json, StoreError> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.expect_byte(b':')?;
            let value = self.parse_value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(fields)),
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a `BENCH_*.json` dump into typed rows. Requires the post-PR-9
/// schema: every row must carry `kind` and `unit` — a dump without them
/// yields [`StoreError::MissingField`] so the gate can never mistake a raw
/// value row for nanoseconds.
///
/// # Errors
/// [`StoreError::Json`] for malformed documents, [`StoreError::MissingField`]
/// for rows missing the typed schema.
pub fn parse_bench_json(text: &str) -> Result<Vec<BenchRow>, StoreError> {
    let doc = JsonParser::new(text).parse_document()?;
    let benches = doc.field("benches").ok_or(StoreError::MissingField {
        id: "<document>".to_string(),
        field: "benches",
    })?;
    let Json::Arr(rows) = benches else {
        return Err(StoreError::MissingField {
            id: "<document>".to_string(),
            field: "benches",
        });
    };
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let id = row
            .field("id")
            .and_then(Json::as_str)
            .ok_or(StoreError::MissingField {
                id: "<row>".to_string(),
                field: "id",
            })?
            .to_string();
        let missing = |field: &'static str| StoreError::MissingField {
            id: id.clone(),
            field,
        };
        let kind = row
            .field("kind")
            .and_then(Json::as_str)
            .and_then(RowKind::parse)
            .ok_or_else(|| missing("kind"))?;
        let unit = row
            .field("unit")
            .and_then(Json::as_str)
            .ok_or_else(|| missing("unit"))?
            .to_string();
        let num = |field: &'static str| {
            row.field(field)
                .and_then(Json::as_num)
                .ok_or_else(|| missing(field))
        };
        let mean_ns = num("mean_ns")?;
        let median_ns = num("median_ns")?;
        let min_ns = num("min_ns")?;
        let samples_raw = num("samples")?;
        if !(samples_raw.is_finite() && samples_raw >= 0.0 && samples_raw.fract() == 0.0) {
            return Err(missing("samples"));
        }
        // Verified integral and non-negative just above; 2^53 caps exact
        // f64 integers far below u64::MAX.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let samples = samples_raw as u64;
        out.push(BenchRow {
            id,
            kind,
            unit,
            mean_ns,
            median_ns,
            min_ns,
            samples,
        });
    }
    Ok(out)
}

/// Escapes `s` for embedding in a JSON string literal: quote, backslash,
/// and the control characters the JSON grammar forbids unescaped. The one
/// escaper of the workspace's hand-written JSON (quarantine records and
/// `bench-store --format json`), the counterpart of the reader above.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The trend gate.
// ---------------------------------------------------------------------------

/// The noise-aware regression rule: relative tolerance over `min_ns` *and*
/// `median_ns` against the stored per-bench best — never the mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrendGate {
    /// Relative tolerance band: a bench regresses when both its `min` and
    /// `median` exceed `baseline × (1 + tolerance)`. `0.5` absorbs typical
    /// shared-runner wall-clock noise.
    pub tolerance: f64,
}

impl Default for TrendGate {
    fn default() -> Self {
        TrendGate { tolerance: 0.5 }
    }
}

/// What the gate concluded about one current bench row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrendStatus {
    /// Within the tolerance band of the stored baseline.
    Pass,
    /// Both `min` and `median` exceed the band — a regression.
    Regressed,
    /// `min` improved past the band (informational; never fails the gate).
    Improved,
    /// No stored baseline for this bench (first recording).
    New,
    /// A `kind = "value"` row: tracked, but never compared in nanosecond
    /// terms.
    NotGated,
    /// Degenerate series (zero or non-finite min/median on either side):
    /// no ratio can be formed, so the gate abstains instead of emitting
    /// NaN verdicts.
    Indeterminate,
}

impl TrendStatus {
    /// Table/JSON spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            TrendStatus::Pass => "pass",
            TrendStatus::Regressed => "REGRESSED",
            TrendStatus::Improved => "improved",
            TrendStatus::New => "new",
            TrendStatus::NotGated => "value (not gated)",
            TrendStatus::Indeterminate => "indeterminate",
        }
    }
}

impl fmt::Display for TrendStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One gate verdict: a current row against its stored baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendVerdict {
    /// The bench.
    pub bench_id: String,
    /// Row kind of the current measurement.
    pub kind: RowKind,
    /// Unit of the current measurement.
    pub unit: String,
    /// Stored baseline points this verdict compared against.
    pub baseline_points: usize,
    /// Best (smallest) stored `min` for the bench, when comparable.
    pub baseline_min: Option<f64>,
    /// Best (smallest) stored `median` for the bench, when comparable.
    pub baseline_median: Option<f64>,
    /// The current row's `min`.
    pub current_min: f64,
    /// The current row's `median`.
    pub current_median: f64,
    /// `current_min / baseline_min`, when both are positive and finite.
    pub min_ratio: Option<f64>,
    /// The conclusion.
    pub status: TrendStatus,
}

impl TrendGate {
    /// Judges every current row against the stored baseline. Verdicts come
    /// back sorted by bench id; the gate fails iff any status is
    /// [`TrendStatus::Regressed`].
    pub fn evaluate(
        &self,
        baseline: &ExperimentStore,
        current: &[ExperimentRecord],
    ) -> Vec<TrendVerdict> {
        let mut verdicts: Vec<TrendVerdict> = current
            .iter()
            .map(|row| self.judge(baseline, row))
            .collect();
        verdicts.sort_by(|a, b| a.bench_id.cmp(&b.bench_id));
        verdicts
    }

    fn judge(&self, baseline: &ExperimentStore, row: &ExperimentRecord) -> TrendVerdict {
        let mut verdict = TrendVerdict {
            bench_id: row.bench_id.clone(),
            kind: row.kind,
            unit: row.unit.clone(),
            baseline_points: 0,
            baseline_min: None,
            baseline_median: None,
            current_min: row.min,
            current_median: row.median,
            min_ratio: None,
            status: TrendStatus::NotGated,
        };
        if row.kind == RowKind::Value {
            // Raw values (counts, flags, throughputs) are tracked for
            // history but never judged in nanosecond terms.
            return verdict;
        }
        // Comparable history: same bench, timed, same unit, usable stats.
        let history: Vec<&ExperimentRecord> = baseline
            .records()
            .iter()
            .filter(|r| {
                r.bench_id == row.bench_id
                    && r.kind == RowKind::Timed
                    && r.unit == row.unit
                    && r.min.is_finite()
                    && r.min > 0.0
                    && r.median.is_finite()
                    && r.median > 0.0
            })
            .collect();
        verdict.baseline_points = history.len();
        if history.is_empty() {
            verdict.status = TrendStatus::New;
            return verdict;
        }
        let best = |f: fn(&ExperimentRecord) -> f64| {
            history.iter().map(|r| f(r)).fold(f64::INFINITY, f64::min)
        };
        let base_min = best(|r| r.min);
        let base_median = best(|r| r.median);
        verdict.baseline_min = Some(base_min);
        verdict.baseline_median = Some(base_median);
        // Degenerate current rows (zero / non-finite) admit no ratio; the
        // gate abstains rather than comparing NaNs.
        if !(row.min.is_finite() && row.min > 0.0 && row.median.is_finite() && row.median > 0.0) {
            verdict.status = TrendStatus::Indeterminate;
            return verdict;
        }
        let band = 1.0 + self.tolerance;
        verdict.min_ratio = Some(row.min / base_min);
        verdict.status = if row.min > base_min * band && row.median > base_median * band {
            TrendStatus::Regressed
        } else if row.min * band < base_min {
            TrendStatus::Improved
        } else {
            TrendStatus::Pass
        };
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: &str, commit: &str, ts: u64, min: f64, median: f64) -> ExperimentRecord {
        ExperimentRecord {
            bench_id: id.to_string(),
            commit: commit.to_string(),
            timestamp: ts,
            kind: RowKind::Timed,
            unit: "ns".to_string(),
            mean: (min + median) / 2.0,
            median,
            min,
            samples: 20,
        }
    }

    fn value_rec(id: &str, commit: &str, value: f64, unit: &str) -> ExperimentRecord {
        ExperimentRecord {
            bench_id: id.to_string(),
            commit: commit.to_string(),
            timestamp: 0,
            kind: RowKind::Value,
            unit: unit.to_string(),
            mean: value,
            median: value,
            min: value,
            samples: 1,
        }
    }

    fn sample_records() -> Vec<ExperimentRecord> {
        vec![
            rec("engine/run", "aaa", 1, 100.0, 120.0),
            rec("engine/run", "bbb", 2, 95.0, 118.0),
            rec("window/tally", "aaa", 1, 10.0, 12.0),
            value_rec("alloc/per_round", "aaa", 0.0, "allocs/round"),
        ]
    }

    #[test]
    fn round_trip_is_identity_and_canonical() {
        let store = ExperimentStore::from_records(sample_records());
        let decoded = ExperimentStore::decode(&store.encode()).unwrap();
        assert_eq!(decoded, store);
        // Shuffled + duplicated input canonicalizes to the same bytes.
        let mut shuffled = sample_records();
        shuffled.reverse();
        shuffled.extend(sample_records());
        let store2 = ExperimentStore::from_records(shuffled);
        assert_eq!(store2.encode(), store.encode());
        assert_eq!(store2.len(), 4);
    }

    #[test]
    fn nan_fields_round_trip_bit_identically() {
        let mut records = sample_records();
        records.push(rec("nan/case", "ccc", 3, f64::NAN, f64::NAN));
        let store = ExperimentStore::from_records(records);
        let bytes = store.encode();
        let decoded = ExperimentStore::decode(&bytes).unwrap();
        assert_eq!(decoded.encode(), bytes);
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("distill-store-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_is_idempotent_and_atomic() {
        let dir = scratch("append");
        let path = dir.join("bench.store");
        let first = ExperimentStore::append(&path, &sample_records()).unwrap();
        assert_eq!(first.existing, 0);
        assert_eq!(first.added, 4);
        let bytes_once = std::fs::read(&path).unwrap();
        // Appending the same records again adds nothing and leaves the
        // bytes bit-identical.
        let second = ExperimentStore::append(&path, &sample_records()).unwrap();
        assert_eq!(second.existing, 4);
        assert_eq!(second.added, 0);
        assert_eq!(std::fs::read(&path).unwrap(), bytes_once);
        // A genuinely new record grows the store.
        let third =
            ExperimentStore::append(&path, &[rec("engine/run", "ccc", 3, 90.0, 110.0)]).unwrap();
        assert_eq!(third.added, 1);
        assert_eq!(ExperimentStore::load(&path).unwrap().len(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Writers racing appends of disjoint records into one store each
    /// succeed, and the store ends up with every record of every writer.
    #[test]
    fn concurrent_appends_keep_every_record() {
        let dir = scratch("race");
        let (writers, per_writer) = (4, 6);
        for round in 0..20 {
            let path = dir.join(format!("race{round}.store"));
            let start = std::sync::Barrier::new(writers);
            std::thread::scope(|s| {
                for w in 0..writers {
                    let (path, start) = (&path, &start);
                    s.spawn(move || {
                        start.wait();
                        for i in 0..per_writer {
                            let id = format!("writer{w}/row{i}");
                            ExperimentStore::append(path, &[rec(&id, "race", 1, 1.0, 2.0)])
                                .unwrap();
                        }
                    });
                }
            });
            let store = ExperimentStore::load(&path).unwrap();
            assert_eq!(store.len(), writers * per_writer, "round {round}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Marks a reader child of `loads_never_fail_a_concurrent_append`; the
    /// value is the store it loads.
    const RACE_READER: &str = "DISTILL_STORE_RACE_READER";

    /// Reader processes kill-reaped on drop, so a failing test leaves none
    /// behind.
    struct Readers(Vec<std::process::Child>);

    impl Drop for Readers {
        fn drop(&mut self) {
            for child in &mut self.0 {
                child.kill().ok();
                child.wait().ok();
            }
        }
    }

    /// Readers loop `load` in other processes, as `bench-store query` runs
    /// beside `bench-store append`, while this thread appends disjoint
    /// records one at a time. A load only reads, so every append and every
    /// load succeeds, and the store ends with every record. The readers
    /// are this test binary, re-run on this test alone.
    #[test]
    fn loads_never_fail_a_concurrent_append() {
        use std::time::{Duration, Instant};
        let deadline = Instant::now() + Duration::from_secs(60);
        if let Some(path) = std::env::var_os(RACE_READER) {
            let path = std::path::PathBuf::from(path);
            let dir = path.parent().unwrap();
            std::fs::write(dir.join(format!("ready.{}", std::process::id())), b"").unwrap();
            while !dir.join("stop").exists() && Instant::now() < deadline {
                ExperimentStore::load(&path).unwrap();
            }
            return;
        }
        let dir = scratch("read-race");
        let path = dir.join("bench.store");
        ExperimentStore::append(&path, &sample_records()).unwrap();
        let test = "store::tests::loads_never_fail_a_concurrent_append";
        let mut readers = Readers(Vec::new());
        for _ in 0..2 {
            let child = std::process::Command::new(std::env::current_exe().unwrap())
                .args([test, "--exact", "--test-threads", "1"])
                .env(RACE_READER, &path)
                .stdout(std::process::Stdio::null())
                .spawn()
                .unwrap();
            readers.0.push(child);
        }
        let ready =
            |child: &std::process::Child| dir.join(format!("ready.{}", child.id())).exists();
        while !readers.0.iter().all(ready) {
            assert!(Instant::now() < deadline, "the readers never started");
            std::thread::sleep(Duration::from_millis(1));
        }
        let appends = 40;
        for i in 0..appends {
            let id = format!("race/row{i}");
            ExperimentStore::append(&path, &[rec(&id, "race", 1, 1.0, 2.0)]).unwrap();
        }
        std::fs::write(dir.join("stop"), b"").unwrap();
        for child in &mut readers.0 {
            assert!(child.wait().unwrap().success(), "a reader's load failed");
        }
        let store = ExperimentStore::load(&path).unwrap();
        assert_eq!(store.len(), sample_records().len() + appends);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_of_missing_file_is_empty_but_load_errors() {
        let dir = scratch("missing");
        let path = dir.join("none.store");
        assert!(ExperimentStore::open(&path).unwrap().is_empty());
        assert!(matches!(
            ExperimentStore::load(&path),
            Err(StoreError::Frame(FrameError::Io {
                kind: io::ErrorKind::NotFound,
                ..
            }))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_json_parses_typed_rows() {
        let text = r#"{
  "benches": [
    {"id": "engine/run", "kind": "timed", "unit": "ns", "mean_ns": 110.0, "median_ns": 120.0, "min_ns": 100.0, "samples": 20, "throughput_per_sec": 9090909.1},
    {"id": "alloc/per_round", "kind": "value", "unit": "allocs/round", "mean_ns": 0.0, "median_ns": 0.0, "min_ns": 0.0, "samples": 1, "throughput_per_sec": 0.0}
  ]
}"#;
        let rows = parse_bench_json(text).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].id, "engine/run");
        assert_eq!(rows[0].kind, RowKind::Timed);
        assert_eq!(rows[0].unit, "ns");
        assert_eq!(rows[0].samples, 20);
        assert_eq!(rows[1].kind, RowKind::Value);
        assert_eq!(rows[1].unit, "allocs/round");
        let record = rows[1].clone().into_record("abc", 7);
        assert_eq!(record.key(), ("alloc/per_round", "abc", 7));
    }

    #[test]
    fn bench_json_without_kind_is_refused() {
        // The pre-PR-9 schema: no kind/unit. The gate must refuse to guess.
        let text = r#"{"benches": [
    {"id": "engine/run", "mean_ns": 1.0, "median_ns": 1.0, "min_ns": 1.0, "samples": 1, "throughput_per_sec": 1.0}
  ]}"#;
        assert_eq!(
            parse_bench_json(text),
            Err(StoreError::MissingField {
                id: "engine/run".to_string(),
                field: "kind"
            })
        );
    }

    #[test]
    fn bench_json_malformed_is_typed() {
        for bad in [
            "",
            "{",
            "[1,2",
            "{\"benches\": 3}",
            "{\"benches\": [{\"id\": 4}]}",
            "{\"benches\": []} trailing",
            "{\"benches\": [{\"id\": \"x\", \"kind\": \"sideways\", \"unit\": \"ns\", \"mean_ns\": 1, \"median_ns\": 1, \"min_ns\": 1, \"samples\": 1}]}",
            "{\"benches\": [{\"id\": \"x\", \"kind\": \"timed\", \"unit\": \"ns\", \"mean_ns\": 1, \"median_ns\": 1, \"min_ns\": 1, \"samples\": 1.5}]}",
        ] {
            assert!(parse_bench_json(bad).is_err(), "must reject: {bad:?}");
        }
        // Deep nesting is rejected, not a stack overflow.
        let deep = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse_bench_json(&deep).is_err());
    }

    #[test]
    fn gate_passes_rerun_of_the_same_commit() {
        let store = ExperimentStore::from_records(sample_records());
        let gate = TrendGate::default();
        // Re-running the exact stored rows regresses nothing.
        let verdicts = gate.evaluate(&store, store.records());
        assert!(verdicts.iter().all(|v| v.status != TrendStatus::Regressed));
    }

    #[test]
    fn gate_flags_a_real_regression_but_tolerates_noise() {
        let store = ExperimentStore::from_records(sample_records());
        let gate = TrendGate { tolerance: 0.5 };
        // 40% slower on min and median: inside the 50% band.
        let noisy = [rec("engine/run", "new", 9, 133.0, 163.0)];
        assert_eq!(gate.evaluate(&store, &noisy)[0].status, TrendStatus::Pass);
        // 3x slower on both: regression.
        let slow = [rec("engine/run", "new", 9, 300.0, 360.0)];
        let verdict = &gate.evaluate(&store, &slow)[0];
        assert_eq!(verdict.status, TrendStatus::Regressed);
        assert_eq!(verdict.baseline_min, Some(95.0));
        assert!(verdict.min_ratio.unwrap() > 3.0);
        // Slow min but fast median (one outlier sample): not a regression —
        // both statistics must agree.
        let outlier = [rec("engine/run", "new", 9, 300.0, 119.0)];
        assert_eq!(gate.evaluate(&store, &outlier)[0].status, TrendStatus::Pass);
        // Much faster: improvement, informational.
        let fast = [rec("engine/run", "new", 9, 40.0, 50.0)];
        assert_eq!(
            gate.evaluate(&store, &fast)[0].status,
            TrendStatus::Improved
        );
    }

    #[test]
    fn gate_never_compares_value_rows_in_ns_terms() {
        let store = ExperimentStore::from_records(sample_records());
        let gate = TrendGate::default();
        // A value row "slower" by 10^6x: not gated, no ratio.
        let huge = [value_rec("alloc/per_round", "new", 1e9, "allocs/round")];
        let verdict = &gate.evaluate(&store, &huge)[0];
        assert_eq!(verdict.status, TrendStatus::NotGated);
        assert_eq!(verdict.min_ratio, None);
        // Even a *timed* row only compares against timed history: a bench
        // whose history is all value rows counts as new.
        let timed_vs_values = [rec("alloc/per_round", "new", 9, 5.0, 5.0)];
        assert_eq!(
            gate.evaluate(&store, &timed_vs_values)[0].status,
            TrendStatus::New
        );
    }

    #[test]
    fn gate_degenerate_series_abstain_without_nan() {
        let gate = TrendGate::default();
        // Zero-valued and NaN timed rows on either side: Indeterminate, and
        // every ratio stays None (no NaN verdicts).
        let store = ExperimentStore::from_records(vec![rec("z/zero", "aaa", 1, 10.0, 10.0)]);
        let zero_current = [rec("z/zero", "new", 9, 0.0, 0.0)];
        let verdict = &gate.evaluate(&store, &zero_current)[0];
        assert_eq!(verdict.status, TrendStatus::Indeterminate);
        assert_eq!(verdict.min_ratio, None);
        let nan_current = [rec("z/zero", "new", 9, f64::NAN, f64::NAN)];
        assert_eq!(
            gate.evaluate(&store, &nan_current)[0].status,
            TrendStatus::Indeterminate
        );
        // A store whose only history is degenerate offers no baseline.
        let zero_store = ExperimentStore::from_records(vec![rec("z/zero", "aaa", 1, 0.0, 0.0)]);
        let ok_current = [rec("z/zero", "new", 9, 5.0, 5.0)];
        assert_eq!(
            gate.evaluate(&zero_store, &ok_current)[0].status,
            TrendStatus::New
        );
    }

    #[test]
    fn gate_unknown_bench_is_new() {
        let store = ExperimentStore::from_records(sample_records());
        let verdicts = TrendGate::default().evaluate(&store, &[rec("brand/new", "x", 1, 1.0, 1.0)]);
        assert_eq!(verdicts[0].status, TrendStatus::New);
        assert_eq!(verdicts[0].baseline_points, 0);
    }

    #[test]
    fn escape_covers_controls() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\u{1}y"), "x\\u0001y");
        assert_eq!(json_escape("t\ta"), "t\\ta");
    }

    #[test]
    fn errors_render() {
        for e in [
            StoreError::Frame(FrameError::BadMagic { at: 0 }),
            StoreError::Json {
                at: 5,
                message: "x".into(),
            },
            StoreError::MissingField {
                id: "b".into(),
                field: "kind",
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
        assert_eq!(RowKind::parse("timed"), Some(RowKind::Timed));
        assert_eq!(RowKind::parse("nope"), None);
        assert_eq!(RowKind::Value.to_string(), "value");
        assert_eq!(TrendStatus::Regressed.to_string(), "REGRESSED");
    }
}
