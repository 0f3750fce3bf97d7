//! Durability primitives: a checksummed append-only record log and full
//! database snapshots.
//!
//! The write-ahead log is a flat file of length-prefixed records:
//!
//! ```text
//! ┌─────────────┬─────────────┬────────────────┐
//! │ len: u32 LE │ crc: u32 LE │ payload (len)  │  … repeated
//! └─────────────┴─────────────┴────────────────┘
//! ```
//!
//! `crc` is the CRC-32 (IEEE) of the payload. The reader treats *any* invalid
//! record — short header, length past end-of-file, checksum mismatch — as the
//! end of the log. A crash mid-append therefore loses exactly the torn tail
//! record and nothing else; [`read_wal`] reports how many bytes were valid so
//! the writer can truncate the garbage before appending again.
//!
//! Record payloads are opaque bytes at this layer. The [`ByteWriter`] /
//! [`ByteReader`] pair is the codec used by every layer above (operation and
//! decision encoding in `youtopia-core`, engine records in
//! `youtopia-concurrency`), and [`serialize_database`] /
//! [`deserialize_database`] snapshot a whole [`Database`] — catalog, version
//! chains, tombstones, labeled nulls and id allocators — into the same format.
//! Interned [`Symbol`]s are serialized as strings: the interner is
//! process-global, so raw symbol ids are meaningless across restarts.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write as IoWrite};
use std::path::Path;

use crate::database::Database;
use crate::tuple::{TupleData, TupleId};
use crate::value::{NullId, Symbol, SymbolTable, Value};
use crate::version::{TupleVersion, UpdateId, VersionChain};

/// Errors raised by the durability layer.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A record or snapshot failed to decode.
    Corrupt {
        /// Byte offset (within the payload being decoded) where decoding failed.
        offset: u64,
        /// What went wrong.
        reason: String,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Corrupt { offset, reason } => {
                write!(f, "corrupt wal data at byte {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> WalError {
        WalError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Checksums and fingerprints
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE 802.3) of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Incremental FNV-1a 64-bit hasher, used for configuration fingerprints.
///
/// Not cryptographic — it only needs to detect *accidental* recovery with a
/// different engine configuration, where replay would silently diverge.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// Starts a hash at the FNV-1a offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(0xCBF2_9CE4_8422_2325)
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Feeds a string (length-delimited so `ab|c` ≠ `a|bc`).
    pub fn write_str(&mut self, s: &str) {
        self.write(&(s.len() as u64).to_le_bytes());
        self.write(s.as_bytes());
    }

    /// Feeds a u64.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Fnv64 {
        Fnv64::new()
    }
}

// ---------------------------------------------------------------------------
// Byte codec
// ---------------------------------------------------------------------------

/// Little-endian byte buffer writer used for all durable payloads.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty buffer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes without a length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The buffer contents.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Little-endian cursor over a durable payload; every read is bounds-checked
/// and fails with [`WalError::Corrupt`] rather than panicking.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    fn corrupt(&self, reason: impl Into<String>) -> WalError {
        WalError::Corrupt { offset: self.pos as u64, reason: reason.into() }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WalError> {
        if self.buf.len() - self.pos < n {
            return Err(
                self.corrupt(format!("need {n} bytes, {} remain", self.buf.len() - self.pos))
            );
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, WalError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    pub fn take_u32(&mut self) -> Result<u32, WalError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian u64.
    pub fn take_u64(&mut self) -> Result<u64, WalError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String, WalError> {
        self.take_str_ref().map(str::to_owned)
    }

    /// Reads a length-prefixed UTF-8 string, borrowed from the payload.
    pub fn take_str_ref(&mut self) -> Result<&'a str, WalError> {
        let len = self.take_u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| self.corrupt("invalid utf-8"))
    }

    /// Reads the u32 element count of a collection whose elements each occupy
    /// at least one byte, failing when it exceeds the bytes remaining. Counts
    /// come off the wire or the disk; this is what bounds a decoder's
    /// `Vec::with_capacity(count)` by the size of the input it was handed.
    pub fn take_count(&mut self) -> Result<usize, WalError> {
        let count = self.take_u32()? as usize;
        if count > self.remaining() {
            return Err(self.corrupt(format!(
                "count {count} exceeds the {} bytes remaining",
                self.remaining()
            )));
        }
        Ok(count)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The capacity to reserve for a `count` read off the input, when each
    /// element occupies at least `min_bytes`: never more elements than the
    /// bytes remaining could hold.
    fn capacity_for(&self, count: u64, min_bytes: usize) -> usize {
        count.min((self.remaining() / min_bytes) as u64) as usize
    }

    /// Whether the whole payload has been consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Fails unless the whole payload was consumed (trailing garbage detector).
    pub fn expect_done(&self) -> Result<(), WalError> {
        if self.is_done() {
            Ok(())
        } else {
            Err(self.corrupt(format!("{} trailing bytes", self.remaining())))
        }
    }
}

// ---------------------------------------------------------------------------
// The log file
// ---------------------------------------------------------------------------

/// Appends checksummed records to a log file. By default every append is
/// followed by an `fdatasync`; a *group-commit window* > 1 batches the sync
/// over that many records, trading a bounded crash-loss tail (at most
/// `window − 1` fully-written records plus one torn one, all recovered past
/// by [`read_wal`]'s prefix rule) for one disk flush per window.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    position: u64,
    /// Records per `fdatasync`; 1 = sync every append.
    group_commit: usize,
    /// Appends written since the last sync.
    unsynced: usize,
}

impl WalWriter {
    /// Creates (or truncates) the log file at `path`.
    pub fn create(path: &Path) -> Result<WalWriter, WalError> {
        let file = OpenOptions::new().write(true).create(true).truncate(true).open(path)?;
        Ok(WalWriter { file, position: 0, group_commit: 1, unsynced: 0 })
    }

    /// Opens an existing log for appending after `valid_len` bytes, truncating
    /// any torn tail past that point (see [`read_wal`]).
    pub fn open_append(path: &Path, valid_len: u64) -> Result<WalWriter, WalError> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        Ok(WalWriter { file, position: valid_len, group_commit: 1, unsynced: 0 })
    }

    /// Sets the group-commit window (clamped to at least 1): how many appended
    /// records may share one `fdatasync`.
    pub fn set_group_commit(&mut self, window: usize) {
        self.group_commit = window.max(1);
    }

    /// Appends one record (length + checksum + payload). The record is synced
    /// to disk immediately unless a group-commit window is open, in which case
    /// it becomes durable at the next window boundary or explicit [`flush`].
    ///
    /// [`flush`]: WalWriter::flush
    pub fn append(&mut self, payload: &[u8]) -> Result<(), WalError> {
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        use std::io::Seek;
        self.file.seek(std::io::SeekFrom::Start(self.position))?;
        self.file.write_all(&frame)?;
        self.unsynced += 1;
        if self.unsynced >= self.group_commit {
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        self.position += frame.len() as u64;
        Ok(())
    }

    /// Forces any unsynced appends to disk (a no-op when the window is empty
    /// or group commit is off). Must be called before any durability point
    /// that assumes the log tail is on disk — e.g. cutting a snapshot.
    pub fn flush(&mut self) -> Result<(), WalError> {
        if self.unsynced > 0 {
            self.file.sync_data()?;
            self.unsynced = 0;
        }
        Ok(())
    }

    /// Bytes appended so far (durable up to the last sync; call [`flush`] to
    /// make the full length durable).
    ///
    /// [`flush`]: WalWriter::flush
    pub fn position(&self) -> u64 {
        self.position
    }
}

/// A fully parsed log file: the valid records plus how much of the file they
/// cover (anything past `valid_len` is a torn tail from a crash mid-append).
#[derive(Debug)]
pub struct WalContents {
    /// Payloads of every valid record, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes covered by the valid records; reopen the writer at this length.
    pub valid_len: u64,
    /// Total file length (`valid_len < file_len` means a torn tail was dropped).
    pub file_len: u64,
}

/// Reads every valid record of a log file. Any invalid record — short header,
/// length past end-of-file, checksum mismatch — ends the log: it and anything
/// after it are dropped as a torn tail.
pub fn read_wal(path: &Path) -> Result<WalContents, WalError> {
    let mut data = Vec::new();
    File::open(path)?.read_to_end(&mut data)?;
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        if data.len() - pos < 8 {
            break;
        }
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().unwrap());
        if data.len() - pos - 8 < len {
            break;
        }
        let payload = &data[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            break;
        }
        records.push(payload.to_vec());
        pos += 8 + len;
    }
    Ok(WalContents { records, valid_len: pos as u64, file_len: data.len() as u64 })
}

/// Writes `bytes` to `path` atomically: write a sibling temp file, sync it,
/// then rename over the destination.
pub fn write_file_atomic(path: &Path, bytes: &[u8]) -> Result<(), WalError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_data()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Value and database serialization
// ---------------------------------------------------------------------------

const VALUE_CONST: u8 = 0;
const VALUE_NULL: u8 = 1;

/// The fewest bytes one encoded version occupies (update, seq, data tag).
const MIN_VERSION_BYTES: usize = 8 + 8 + 1;
/// The fewest bytes one encoded tuple occupies (id, version count, a version).
const MIN_TUPLE_BYTES: usize = 8 + 4 + MIN_VERSION_BYTES;

/// Encodes a [`Value`]. Constants are written as strings because the symbol
/// interner is process-global: raw symbol ids do not survive a restart.
pub fn encode_value(value: &Value, out: &mut ByteWriter) {
    put_value(value, |sym| sym.as_str(), out);
}

/// [`encode_value`] with the constant's string supplied by `name`.
fn put_value<S: std::ops::Deref<Target = str>>(
    value: &Value,
    name: impl FnOnce(Symbol) -> S,
    out: &mut ByteWriter,
) {
    match value {
        Value::Const(sym) => {
            out.put_u8(VALUE_CONST);
            out.put_str(&name(*sym));
        }
        Value::Null(null) => {
            out.put_u8(VALUE_NULL);
            out.put_u64(null.0);
        }
    }
}

/// Decodes a [`Value`] written by [`encode_value`].
pub fn decode_value(r: &mut ByteReader<'_>) -> Result<Value, WalError> {
    take_value(r, Symbol::intern)
}

/// [`decode_value`] with the constant's symbol supplied by `intern`.
fn take_value(
    r: &mut ByteReader<'_>,
    intern: impl FnOnce(&str) -> Symbol,
) -> Result<Value, WalError> {
    match r.take_u8()? {
        VALUE_CONST => Ok(Value::Const(intern(r.take_str_ref()?))),
        VALUE_NULL => Ok(Value::Null(NullId(r.take_u64()?))),
        tag => Err(r.corrupt(format!("unknown value tag {tag}"))),
    }
}

/// Serializes a whole database: catalog, id allocators, and every version of
/// every tuple (including tombstones), in deterministic order. Constants are
/// named under one interner read guard for the whole encode.
pub fn serialize_database(db: &Database) -> Vec<u8> {
    let mut out = ByteWriter::new();
    let catalog = db.catalog();
    out.put_u32(catalog.len() as u32);
    for schema in catalog.iter() {
        out.put_str(&schema.name);
        out.put_u32(schema.attributes.len() as u32);
        for attr in &schema.attributes {
            out.put_str(attr);
        }
    }
    let (next_tuple, next_null, next_seq) = db.wal_counters();
    out.put_u64(next_tuple);
    out.put_u64(next_null);
    out.put_u64(next_seq);
    let store = db.version_store();
    let symbols = SymbolTable::lock();
    for schema in catalog.iter() {
        let relation = store.relation(schema.id).expect("catalog relation has storage");
        out.put_u64(relation.logical_len() as u64);
        for (tuple, chain) in relation.chains() {
            out.put_u64(tuple.0);
            out.put_u32(chain.versions().len() as u32);
            for version in chain.versions() {
                out.put_u64(version.update.0);
                out.put_u64(version.seq);
                match &version.data {
                    None => out.put_u8(0),
                    Some(data) => {
                        out.put_u8(1);
                        out.put_u32(data.len() as u32);
                        for value in data.iter() {
                            put_value(value, |sym| symbols.name(sym), &mut out);
                        }
                    }
                }
            }
        }
    }
    out.into_bytes()
}

/// Rebuilds a database from [`serialize_database`] bytes in one pass: each
/// relation's chains are decoded in id order and installed in bulk, with
/// every constant resolved under one interner read guard.
///
/// Beyond the grammar it checks that tuple ids rise strictly within a
/// relation, appear in one relation only and sit below the snapshot's tuple
/// allocator, which would otherwise hand an existing id to the next insert.
pub fn deserialize_database(bytes: &[u8]) -> Result<Database, WalError> {
    let mut r = ByteReader::new(bytes);
    let mut db = Database::new();
    let relation_count = r.take_count()?;
    let mut relation_ids = Vec::with_capacity(relation_count);
    for _ in 0..relation_count {
        let name = r.take_str()?;
        let attr_count = r.take_count()?;
        let mut attrs = Vec::with_capacity(attr_count);
        for _ in 0..attr_count {
            attrs.push(r.take_str()?);
        }
        let id = db.add_relation(name, attrs).map_err(|e| WalError::Corrupt {
            offset: 0,
            reason: format!("catalog rebuild failed: {e}"),
        })?;
        relation_ids.push((id, attr_count));
    }
    let next_tuple = r.take_u64()?;
    let next_null = r.take_u64()?;
    let next_seq = r.take_u64()?;
    let mut symbols = SymbolTable::lock();
    let mut scratch = Vec::new();
    for (relation, arity) in relation_ids {
        let chains = take_chains(&mut r, arity, next_tuple, &mut symbols, &mut scratch)?;
        db.store_mut()
            .restore_relation(relation, chains)
            .map_err(|tuple| r.corrupt(format!("tuple id {} in two relations", tuple.0)))?;
    }
    drop(symbols);
    db.restore_wal_counters(next_tuple, next_null, next_seq);
    r.expect_done()?;
    Ok(db)
}

/// Decodes one relation's tuples: `(id, chain)` pairs in strictly increasing
/// id order, every id below `next_tuple`.
fn take_chains(
    r: &mut ByteReader<'_>,
    arity: usize,
    next_tuple: u64,
    symbols: &mut SymbolTable,
    scratch: &mut Vec<Value>,
) -> Result<Vec<(TupleId, VersionChain)>, WalError> {
    let tuple_count = r.take_u64()?;
    let mut chains: Vec<(TupleId, VersionChain)> =
        Vec::with_capacity(r.capacity_for(tuple_count, MIN_TUPLE_BYTES));
    for _ in 0..tuple_count {
        let tuple = TupleId(r.take_u64()?);
        if tuple.0 >= next_tuple {
            return Err(r.corrupt(format!(
                "tuple id {} not below the tuple allocator {next_tuple}",
                tuple.0
            )));
        }
        if chains.last().is_some_and(|&(last, _)| last >= tuple) {
            return Err(r.corrupt(format!("tuple id {} out of order", tuple.0)));
        }
        let version_count = r.take_u32()?;
        if version_count == 0 {
            return Err(r.corrupt("tuple with no versions"));
        }
        let mut versions =
            Vec::with_capacity(r.capacity_for(version_count.into(), MIN_VERSION_BYTES));
        for _ in 0..version_count {
            let update = UpdateId(r.take_u64()?);
            let seq = r.take_u64()?;
            let data = match r.take_u8()? {
                0 => None,
                1 => Some(take_tuple_data(r, arity, symbols, scratch)?),
                tag => return Err(r.corrupt(format!("unknown tuple-data tag {tag}"))),
            };
            versions.push(TupleVersion { update, seq, data });
        }
        chains.push((tuple, VersionChain::from_versions(versions)));
    }
    Ok(chains)
}

/// Decodes one tuple's values through the reused `scratch` buffer, so the
/// tuple costs the one allocation of its shared slice.
fn take_tuple_data(
    r: &mut ByteReader<'_>,
    arity: usize,
    symbols: &mut SymbolTable,
    scratch: &mut Vec<Value>,
) -> Result<TupleData, WalError> {
    let value_count = r.take_count()?;
    // The column indexes are sized by the catalog: a tuple of any other
    // width would index out of range.
    if value_count != arity {
        return Err(
            r.corrupt(format!("tuple of {value_count} values in a relation of arity {arity}"))
        );
    }
    scratch.clear();
    for _ in 0..value_count {
        scratch.push(take_value(r, |s| symbols.intern(s))?);
    }
    Ok(TupleData::from(&scratch[..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RelationStore;
    use crate::value::Value as V;
    use crate::version::Write;

    #[test]
    fn crc32_matches_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn byte_codec_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_str("héllo");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.take_str().unwrap(), "héllo");
        assert!(r.expect_done().is_ok());
        assert!(r.take_u8().is_err(), "reads past the end must fail, not panic");
    }

    #[test]
    fn wal_roundtrip_and_torn_tail() {
        let dir = std::env::temp_dir().join(format!(
            "youtopia-wal-test-{}-{}",
            std::process::id(),
            line!()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let payloads: Vec<Vec<u8>> = vec![b"first".to_vec(), b"second".to_vec(), vec![0u8; 100]];
        {
            let mut w = WalWriter::create(&path).unwrap();
            for p in &payloads {
                w.append(p).unwrap();
            }
        }
        let contents = read_wal(&path).unwrap();
        assert_eq!(contents.records, payloads);
        assert_eq!(contents.valid_len, contents.file_len);

        // Truncating anywhere inside the last record drops exactly that record.
        let full = std::fs::read(&path).unwrap();
        let second_end = (8 + payloads[0].len() + 8 + payloads[1].len()) as u64;
        for cut in second_end..contents.file_len {
            std::fs::write(&path, &full[..cut as usize]).unwrap();
            let torn = read_wal(&path).unwrap();
            assert_eq!(torn.records, payloads[..2].to_vec(), "cut at {cut}");
            assert_eq!(torn.valid_len, second_end);
        }

        // Reopening at valid_len truncates the garbage and appends cleanly.
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let torn = read_wal(&path).unwrap();
        let mut w = WalWriter::open_append(&path, torn.valid_len).unwrap();
        w.append(b"replacement").unwrap();
        let contents = read_wal(&path).unwrap();
        assert_eq!(contents.records.len(), 3);
        assert_eq!(contents.records[2], b"replacement");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_batches_syncs_but_loses_nothing_written() {
        let dir = std::env::temp_dir().join(format!(
            "youtopia-wal-test-{}-{}",
            std::process::id(),
            line!()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let payloads: Vec<Vec<u8>> = (0..10u8).map(|i| vec![i; 16]).collect();
        {
            let mut w = WalWriter::create(&path).unwrap();
            w.set_group_commit(4);
            for p in &payloads {
                w.append(p).unwrap();
            }
            // 10 appends with a window of 4 leave 2 records unsynced; flush
            // must be an explicit durability point, and idempotent.
            w.flush().unwrap();
            w.flush().unwrap();
        }
        let contents = read_wal(&path).unwrap();
        assert_eq!(contents.records, payloads);
        assert_eq!(contents.valid_len, contents.file_len);

        // Reopening after a simulated crash keeps the torn-tail prefix rule:
        // truncating mid-record drops exactly the torn record, group commit or
        // not — the frame format on disk is identical.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let torn = read_wal(&path).unwrap();
        assert_eq!(torn.records, payloads[..9].to_vec());
        let mut w = WalWriter::open_append(&path, torn.valid_len).unwrap();
        w.set_group_commit(4);
        w.append(b"after-crash").unwrap();
        w.flush().unwrap();
        let contents = read_wal(&path).unwrap();
        assert_eq!(contents.records.len(), 10);
        assert_eq!(contents.records[9], b"after-crash");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_checksum_ends_the_log() {
        let dir = std::env::temp_dir().join(format!(
            "youtopia-wal-test-{}-{}",
            std::process::id(),
            line!()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(b"good").unwrap();
        w.append(b"flipped").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let contents = read_wal(&path).unwrap();
        assert_eq!(contents.records, vec![b"good".to_vec()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn database_snapshot_roundtrip() {
        let mut db = Database::new();
        let r = db.add_relation("R", ["a", "b"]).unwrap();
        db.add_relation("S", ["x"]).unwrap();
        let x = db.fresh_null();
        db.apply(
            &Write::Insert { relation: r, values: vec![V::Null(x), V::constant("k")] },
            UpdateId(1),
        )
        .unwrap();
        let t = db.insert_by_name("R", &["u", "v"], UpdateId(2));
        db.insert_by_name("S", &["w"], UpdateId(3));
        // Tombstone + a null-replacement version on top of live data.
        db.apply(&Write::Delete { relation: r, tuple: t }, UpdateId(4)).unwrap();
        db.apply(&Write::NullReplace { null: x, replacement: V::constant("NYC") }, UpdateId(5))
            .unwrap();

        let bytes = serialize_database(&db);
        let restored = deserialize_database(&bytes).unwrap();

        assert_eq!(serialize_database(&restored), bytes, "re-serialization is byte-identical");
        assert_eq!(restored.wal_counters(), db.wal_counters());
        for id in db.catalog().relation_ids() {
            assert_eq!(restored.scan(id, UpdateId::OMNISCIENT), db.scan(id, UpdateId::OMNISCIENT));
            assert_eq!(restored.scan(id, UpdateId(3)), db.scan(id, UpdateId(3)));
        }
        // The null index survives: replacing a null in the restored database
        // still finds nothing (x was already replaced before the snapshot).
        assert!(restored.null_occurrences(x, UpdateId::OMNISCIENT).is_empty());
        // Rollback still works against rebuilt chains (exercises tuple_locations).
        let mut restored = restored;
        let vanished = restored.rollback_update(UpdateId(3));
        assert_eq!(vanished.len(), 1);
    }

    #[test]
    fn snapshot_rejects_truncation_and_garbage() {
        let mut db = Database::new();
        db.add_relation("R", ["a"]).unwrap();
        db.insert_by_name("R", &["v"], UpdateId(1));
        let bytes = serialize_database(&db);
        assert!(deserialize_database(&bytes[..bytes.len() - 1]).is_err());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(deserialize_database(&extended).is_err(), "trailing garbage rejected");

        // A well-formed two-value tuple under a one-attribute catalog (the
        // catalog of `db` spliced onto the body of a wider twin): the column
        // indexes are sized by the catalog, so this must be a typed error,
        // not an out-of-range index.
        let mut wide = Database::new();
        wide.add_relation("R", ["a", "b"]).unwrap();
        wide.insert_by_name("R", &["v", "w"], UpdateId(1));
        let wide_bytes = serialize_database(&wide);
        let catalog_len = 4 + (4 + 1) + 4 + (4 + 1);
        let spliced = [&bytes[..catalog_len], &wide_bytes[catalog_len + (4 + 1)..]].concat();
        match deserialize_database(&spliced) {
            Err(WalError::Corrupt { reason, .. }) => assert!(reason.contains("arity"), "{reason}"),
            other => panic!("expected a typed Corrupt error, got {other:?}"),
        }
    }

    /// A snapshot of one-attribute relations `R0, R1, …` whose tuples are
    /// the ids in `relations`, each holding one insert version of `v`.
    fn snapshot_of(next_tuple: u64, relations: &[&[u64]]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u32(relations.len() as u32);
        for i in 0..relations.len() {
            w.put_str(&format!("R{i}"));
            w.put_u32(1);
            w.put_str("a");
        }
        w.put_u64(next_tuple);
        w.put_u64(0);
        w.put_u64(next_tuple);
        for ids in relations {
            w.put_u64(ids.len() as u64);
            for &id in ids.iter() {
                w.put_u64(id);
                w.put_u32(1);
                w.put_u64(1);
                w.put_u64(id);
                w.put_u8(1);
                w.put_u32(1);
                w.put_u8(VALUE_CONST);
                w.put_str("v");
            }
        }
        w.into_bytes()
    }

    fn corrupt_reason(bytes: &[u8]) -> String {
        match deserialize_database(bytes) {
            Err(WalError::Corrupt { reason, .. }) => reason,
            other => panic!("expected a typed Corrupt error, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_rejects_tuple_ids_the_allocator_would_reissue() {
        let mut db = Database::new();
        db.add_relation("R", ["a"]).unwrap();
        db.insert_by_name("R", &["x"], UpdateId(1));
        db.insert_by_name("R", &["y"], UpdateId(1));
        let mut bytes = serialize_database(&db);
        // Catalog: count, "R", attribute count, "a"; then `next_tuple`.
        assert_eq!(bytes[18..26], 2u64.to_le_bytes());
        bytes[18..26].fill(0);
        // Decoded, the next insert would get t0 and overwrite (t0, x).
        assert!(corrupt_reason(&bytes).contains("tuple allocator"));

        let well_formed = snapshot_of(3, &[&[0, 2], &[1]]);
        let db = deserialize_database(&well_formed).unwrap();
        assert_eq!(serialize_database(&db), well_formed);
        assert!(corrupt_reason(&snapshot_of(2, &[&[0, 2], &[1]])).contains("tuple allocator"));
        assert!(corrupt_reason(&snapshot_of(3, &[&[2, 0], &[1]])).contains("out of order"));
        assert!(corrupt_reason(&snapshot_of(3, &[&[0, 0], &[1]])).contains("out of order"));
        assert!(corrupt_reason(&snapshot_of(3, &[&[0, 2], &[2]])).contains("two relations"));
    }

    /// The decoder as it was before the bulk restore: every version replayed
    /// through `insert_new`/`push_version`, the referee for
    /// [`deserialize_database`].
    fn replay_reference(bytes: &[u8]) -> Database {
        let mut r = ByteReader::new(bytes);
        let mut db = Database::new();
        let mut relations = Vec::new();
        for _ in 0..r.take_u32().unwrap() {
            let name = r.take_str().unwrap();
            let attrs: Vec<String> =
                (0..r.take_u32().unwrap()).map(|_| r.take_str().unwrap()).collect();
            relations.push(db.add_relation(name, attrs).unwrap());
        }
        let (next_tuple, next_null, next_seq) =
            (r.take_u64().unwrap(), r.take_u64().unwrap(), r.take_u64().unwrap());
        for relation in relations {
            for _ in 0..r.take_u64().unwrap() {
                let tuple = TupleId(r.take_u64().unwrap());
                for i in 0..r.take_u32().unwrap() {
                    let update = UpdateId(r.take_u64().unwrap());
                    let seq = r.take_u64().unwrap();
                    let data = (r.take_u8().unwrap() == 1).then(|| {
                        let count = r.take_u32().unwrap();
                        (0..count).map(|_| decode_value(&mut r).unwrap()).collect()
                    });
                    let version = TupleVersion { update, seq, data };
                    if i == 0 {
                        db.store_mut().insert_new(relation, tuple, version);
                    } else {
                        db.store_mut().push_version(relation, tuple, version);
                    }
                }
            }
        }
        db.restore_wal_counters(next_tuple, next_null, next_seq);
        r.expect_done().unwrap();
        db
    }

    /// Everything a reader or an epoch-validated memo can observe of two
    /// databases agrees.
    fn assert_same_store(bulk: &Database, reference: &Database) {
        assert_eq!(bulk.wal_counters(), reference.wal_counters());
        let (a, b) = (bulk.version_store(), reference.version_store());
        let readers: Vec<UpdateId> = (0..8).map(UpdateId).chain([UpdateId::OMNISCIENT]).collect();
        for id in bulk.catalog().relation_ids() {
            let (ra, rb) = (a.relation(id).unwrap(), b.relation(id).unwrap());
            let chains = |r: &RelationStore| -> Vec<_> {
                r.chains()
                    .map(|(t, c)| {
                        let versions: Vec<_> = c
                            .versions()
                            .iter()
                            .map(|v| (v.update, v.seq, v.data.clone()))
                            .collect();
                        (t, versions)
                    })
                    .collect()
            };
            assert_eq!(chains(ra), chains(rb), "chains of {id:?}");
            assert_eq!(ra.column_index(), rb.column_index(), "index buckets of {id:?}");
            assert_eq!(a.relation_epoch(id), b.relation_epoch(id), "epoch of {id:?}");
            assert_eq!(ra.size_estimate(None), rb.size_estimate(None));
            for (column, bucket) in ra.column_index().iter().enumerate() {
                for &value in bucket.keys() {
                    let probe = Some((column, value));
                    assert_eq!(ra.size_estimate(probe), rb.size_estimate(probe));
                }
            }
            for tuple in ra.tuple_ids() {
                assert_eq!(a.tuple_relation(tuple), b.tuple_relation(tuple));
            }
        }
        for null in 0..=bulk.null_counter() {
            for &reader in &readers {
                assert_eq!(
                    a.null_occurrences(NullId(null), reader),
                    b.null_occurrences(NullId(null), reader),
                    "occurrences of x{null} at {reader:?}"
                );
            }
        }
    }

    /// Plays a seeded history of inserts, deletes, null replacements and
    /// rollbacks by updates 1–6. It opens with a re-versioned tuple: t0's
    /// replacement re-enters the `a` bucket behind t1.
    fn history(ops: &[(u8, u64, u64)]) -> Database {
        let mut db = Database::new();
        let r = db.add_relation("R", ["a", "b"]).unwrap();
        let s = db.add_relation("S", ["c"]).unwrap();
        let (a, c) = (V::constant("a"), V::constant("c"));
        let x = db.fresh_null();
        db.apply(&Write::Insert { relation: r, values: vec![a, V::Null(x)] }, UpdateId(1)).unwrap();
        db.apply(&Write::Insert { relation: r, values: vec![a, c] }, UpdateId(2)).unwrap();
        db.apply(&Write::NullReplace { null: x, replacement: c }, UpdateId(3)).unwrap();
        for &(kind, pick, other) in ops {
            let writer = UpdateId(1 + pick % 6);
            let value = |k: u64, db: &Database| match k % 4 {
                0 => V::Null(db.fresh_null()),
                1 => V::Null(NullId(k % (db.null_counter() + 1))),
                _ => V::constant(&format!("k{}", k % 5)),
            };
            let _ = match kind {
                0 => {
                    let values = vec![value(other, &db), value(other / 7, &db)];
                    db.apply(&Write::Insert { relation: r, values }, writer)
                }
                1 => db
                    .apply(&Write::Insert { relation: s, values: vec![value(other, &db)] }, writer),
                2 => {
                    let relation = if other % 2 == 0 { r } else { s };
                    let rows = db.scan(relation, UpdateId::OMNISCIENT);
                    if rows.is_empty() {
                        continue;
                    }
                    let tuple = rows[(other as usize / 2) % rows.len()].0;
                    db.apply(&Write::Delete { relation, tuple }, writer)
                }
                3 => {
                    let null = NullId(other % (db.null_counter() + 1));
                    let replacement = value(other / 3, &db);
                    if replacement == V::Null(null) {
                        continue;
                    }
                    db.apply(&Write::NullReplace { null, replacement }, writer)
                }
                _ => {
                    db.rollback_update(writer);
                    continue;
                }
            };
        }
        db
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(300))]

        /// The bulk decode leaves what replaying every version leaves: the
        /// same chains, buckets in the same order, null index and epochs, and
        /// it re-encodes to the very bytes it read.
        #[test]
        fn bulk_decode_matches_per_version_replay(
            ops in proptest::collection::vec((0u8..5, 0u64..1_000, 0u64..1_000), 0..40)
        ) {
            let bytes = serialize_database(&history(&ops));
            let bulk = deserialize_database(&bytes).unwrap();
            assert_same_store(&bulk, &replay_reference(&bytes));
            proptest::prop_assert_eq!(serialize_database(&bulk), bytes);
        }
    }
}
