//! Zero-copy binary snapshot persistence.
//!
//! Edge lists ([`crate::io`]) are human-readable, but a million-vertex graph
//! read from one pays a full re-parse and CSR re-sort on every process
//! start. This module defines a **sectioned, versioned, checksummed binary
//! format** holding the frozen arrays exactly as they live in memory, so a
//! loaded file needs no parsing at all: the big arrays are viewed in place
//! through [`FlatVec`], either off an `mmap(2)` of the file or off one
//! aligned buffered read (the portable fallback).
//!
//! # File layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  "ICDESNAP"
//! 8       4     format version (currently 1)
//! 12      4     payload kind (1 = graph, 2 = community index)
//! 16      4     section count
//! 20      4     reserved (0)
//! 24      8     checksum of every byte from offset 32 to EOF
//!               (word-folded FNV-1a, see [`file_checksum`])
//! 32      24*k  section table: {id: u32, reserved: u32, offset: u64, bytes: u64}
//! ...           section payloads, each starting at an 8-byte-aligned offset
//! ```
//!
//! Section payloads are flat element arrays (`u32` / `u64` / `f64` bit
//! patterns); what each section id means is defined by the payload kind — see
//! [`graph_io`] for the graph sections and `icde_core::snapshot` for the
//! index sections. The 8-byte alignment of every section, together with the
//! page (or explicit) alignment of the region base, is what makes the
//! in-place typed views sound.
//!
//! Corrupt inputs (truncated files, foreign magic, future versions, bit rot)
//! are rejected with a typed [`SnapshotError`] — never a panic, never an
//! out-of-bounds view.

mod graph_io;
mod region;
mod storage;

pub use graph_io::{
    graph_from_snapshot, read_graph_snapshot, read_graph_snapshot_with, write_graph_snapshot,
    KIND_GRAPH,
};
pub use region::{LoadMode, MappedRegion, REGION_ALIGN};
pub use storage::{FlatVec, SectionElement, SectionShadow};

use std::fs::File;
use std::path::Path;
use std::sync::Arc;

/// Magic bytes identifying a TopL-ICDE binary snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"ICDESNAP";
/// Current binary format version.
pub const SNAPSHOT_VERSION: u32 = 1;
/// Payload kind of an index snapshot (defined here so the kinds live in one
/// registry; the index sections themselves are defined in `icde_core`).
pub const KIND_INDEX: u32 = 2;

/// Byte length of the fixed header (everything before the section table).
const HEADER_LEN: usize = 32;
/// Byte length of one section-table entry.
const SECTION_ENTRY_LEN: usize = 24;
/// Upper bound on the section count — far above any real snapshot, it only
/// stops a corrupt header from provoking a huge allocation.
const MAX_SECTIONS: u32 = 4096;

/// Errors reported by the snapshot reader/writer.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The file's format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The file carries a different payload kind than the caller expected.
    WrongKind { expected: u32, found: u32 },
    /// The file ends before the header, section table, or a section payload.
    Truncated,
    /// The stored checksum does not match the file contents.
    ChecksumMismatch { stored: u64, computed: u64 },
    /// Structurally invalid content (bad section table, inconsistent array
    /// lengths, out-of-range ids, ...).
    Malformed(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a TopL-ICDE snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => write!(
                f,
                "unsupported snapshot format version {v} (this build reads version \
                 {SNAPSHOT_VERSION})"
            ),
            SnapshotError::WrongKind { expected, found } => write!(
                f,
                "snapshot holds payload kind {found}, expected kind {expected}"
            ),
            SnapshotError::Truncated => write!(f, "snapshot file is truncated"),
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            SnapshotError::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Result alias for snapshot operations.
pub type SnapshotResult<T> = Result<T, SnapshotError>;

/// Returns `true` if the file at `path` starts with [`SNAPSHOT_MAGIC`] —
/// the cheap format sniff every loader that accepts "snapshot or something
/// else" dispatches on. Unreadable or too-short files report `false`.
pub fn path_is_snapshot<P: AsRef<Path>>(path: P) -> bool {
    use std::io::Read;
    let mut head = [0u8; 8];
    File::open(path)
        .and_then(|mut f| f.read_exact(&mut head))
        .map(|_| head == SNAPSHOT_MAGIC)
        .unwrap_or(false)
}

/// FNV-1a 64-bit over a byte slice. Not cryptographic; it detects truncation
/// and bit rot, not tampering.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// The **file checksum**: FNV-1a folded 8 bytes per step (little-endian
/// words, tail bytes folded individually). Detection power is the same as
/// the byte-serial variant — any flipped bit changes the folded word — but
/// it runs ~8× faster, which matters because the checksum pass is the only
/// O(file) work on the zero-copy load path.
pub fn file_checksum(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        hash ^= u64::from_le_bytes(c.try_into().expect("8 bytes"));
        hash = hash.wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Folds more bytes into a running FNV-1a 64 state (used by the content
/// fingerprints that span several arrays).
pub fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Little-endian element encoding
// ---------------------------------------------------------------------------

fn extend_u32s(out: &mut Vec<u8>, vals: &[u32]) {
    if cfg!(target_endian = "little") {
        // Safety: u32 has no padding; on little-endian targets the in-memory
        // bytes are already the wire format.
        let bytes =
            unsafe { std::slice::from_raw_parts(vals.as_ptr() as *const u8, vals.len() * 4) };
        out.extend_from_slice(bytes);
    } else {
        for v in vals {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

fn extend_u64s(out: &mut Vec<u8>, vals: &[u64]) {
    if cfg!(target_endian = "little") {
        // Safety: as in `extend_u32s`.
        let bytes =
            unsafe { std::slice::from_raw_parts(vals.as_ptr() as *const u8, vals.len() * 8) };
        out.extend_from_slice(bytes);
    } else {
        for v in vals {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

fn extend_f64s(out: &mut Vec<u8>, vals: &[f64]) {
    if cfg!(target_endian = "little") {
        // Safety: as in `extend_u32s`; f64 bit patterns round-trip exactly.
        let bytes =
            unsafe { std::slice::from_raw_parts(vals.as_ptr() as *const u8, vals.len() * 8) };
        out.extend_from_slice(bytes);
    } else {
        for v in vals {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
}

fn read_u32_at(bytes: &[u8], offset: usize) -> u32 {
    u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes"))
}

fn read_u64_at(bytes: &[u8], offset: usize) -> u64 {
    u64::from_le_bytes(bytes[offset..offset + 8].try_into().expect("8 bytes"))
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Accumulates sections and serialises them into the on-disk layout.
#[derive(Debug)]
pub struct SnapshotWriter {
    kind: u32,
    sections: Vec<(u32, Vec<u8>)>,
}

impl SnapshotWriter {
    /// Starts a snapshot of the given payload kind.
    pub fn new(kind: u32) -> Self {
        SnapshotWriter {
            kind,
            sections: Vec::new(),
        }
    }

    /// Adds a raw byte section.
    ///
    /// # Panics
    /// Panics if `id` was already added (a writer bug, not an input error).
    pub fn add_bytes(&mut self, id: u32, bytes: Vec<u8>) {
        assert!(
            self.sections.iter().all(|(existing, _)| *existing != id),
            "duplicate snapshot section id {id}"
        );
        self.sections.push((id, bytes));
    }

    /// Adds a `u32` array section.
    pub fn add_u32s(&mut self, id: u32, vals: &[u32]) {
        let mut bytes = Vec::with_capacity(vals.len() * 4);
        extend_u32s(&mut bytes, vals);
        self.add_bytes(id, bytes);
    }

    /// Adds a `u64` array section.
    pub fn add_u64s(&mut self, id: u32, vals: &[u64]) {
        let mut bytes = Vec::with_capacity(vals.len() * 8);
        extend_u64s(&mut bytes, vals);
        self.add_bytes(id, bytes);
    }

    /// Adds an `f64` array section (exact bit patterns).
    pub fn add_f64s(&mut self, id: u32, vals: &[f64]) {
        let mut bytes = Vec::with_capacity(vals.len() * 8);
        extend_f64s(&mut bytes, vals);
        self.add_bytes(id, bytes);
    }

    /// Serialises the snapshot into its byte representation.
    pub fn finish(self) -> Vec<u8> {
        let table_len = self.sections.len() * SECTION_ENTRY_LEN;
        let mut payload_offset = HEADER_LEN + table_len;
        // section table first, payloads after, every payload 8-aligned
        let mut table = Vec::with_capacity(table_len);
        let mut offsets = Vec::with_capacity(self.sections.len());
        for (id, bytes) in &self.sections {
            payload_offset = payload_offset.div_ceil(8) * 8;
            table.extend_from_slice(&id.to_le_bytes());
            table.extend_from_slice(&0u32.to_le_bytes());
            table.extend_from_slice(&(payload_offset as u64).to_le_bytes());
            table.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            offsets.push(payload_offset);
            payload_offset += bytes.len();
        }
        let total_len = payload_offset;
        let mut out = vec![0u8; total_len];
        out[0..8].copy_from_slice(&SNAPSHOT_MAGIC);
        out[8..12].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out[12..16].copy_from_slice(&self.kind.to_le_bytes());
        out[16..20].copy_from_slice(&(self.sections.len() as u32).to_le_bytes());
        // bytes 20..24 reserved, 24..32 checksum (filled below)
        out[HEADER_LEN..HEADER_LEN + table_len].copy_from_slice(&table);
        for ((_, bytes), offset) in self.sections.iter().zip(&offsets) {
            out[*offset..offset + bytes.len()].copy_from_slice(bytes);
        }
        let checksum = file_checksum(&out[HEADER_LEN..]);
        out[24..32].copy_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Writes the snapshot to `path` crash-safely: the bytes go to a
    /// temporary file in the same directory which is renamed into place, so a
    /// killed process never leaves a truncated snapshot under the final name.
    pub fn write_to<P: AsRef<Path>>(self, path: P) -> SnapshotResult<()> {
        crate::io::atomic_write(path.as_ref(), &self.finish())?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A loaded, validated snapshot: the backing region plus the parsed section
/// table. Typed accessors hand out in-place views (zero-copy on
/// little-endian targets) or decoded copies.
#[derive(Debug)]
pub struct Snapshot {
    region: Arc<MappedRegion>,
    kind: u32,
    /// `(id, byte offset, byte length)` per section.
    sections: Vec<(u32, usize, usize)>,
}

impl Snapshot {
    /// Opens a snapshot file with [`LoadMode::Auto`].
    pub fn open<P: AsRef<Path>>(path: P) -> SnapshotResult<Snapshot> {
        Self::open_with(path, LoadMode::Auto)
    }

    /// Opens a snapshot file with an explicit load mode.
    pub fn open_with<P: AsRef<Path>>(path: P, mode: LoadMode) -> SnapshotResult<Snapshot> {
        let mut file = File::open(path)?;
        let region = match mode {
            LoadMode::Mmap => MappedRegion::map_file(&file)?,
            LoadMode::Buffered => MappedRegion::read_file(&mut file)?,
            LoadMode::Auto => match MappedRegion::map_file(&file) {
                Ok(region) => region,
                Err(_) => MappedRegion::read_file(&mut file)?,
            },
        };
        Self::from_region(region)
    }

    /// Validates a byte region as a snapshot (header, section table,
    /// checksum).
    pub fn from_region(region: Arc<MappedRegion>) -> SnapshotResult<Snapshot> {
        let bytes = region.bytes();
        // a short file that is not even a prefix of the magic is no snapshot
        let probe = bytes.len().min(SNAPSHOT_MAGIC.len());
        if bytes[..probe] != SNAPSHOT_MAGIC[..probe] {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated);
        }
        let version = read_u32_at(bytes, 8);
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let kind = read_u32_at(bytes, 12);
        let section_count = read_u32_at(bytes, 16);
        if section_count > MAX_SECTIONS {
            return Err(SnapshotError::Malformed(format!(
                "section count {section_count} exceeds the limit {MAX_SECTIONS}"
            )));
        }
        let table_end = HEADER_LEN + section_count as usize * SECTION_ENTRY_LEN;
        if bytes.len() < table_end {
            return Err(SnapshotError::Truncated);
        }
        let stored = read_u64_at(bytes, 24);
        let computed = file_checksum(&bytes[HEADER_LEN..]);
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }
        let mut sections = Vec::with_capacity(section_count as usize);
        for i in 0..section_count as usize {
            let entry = HEADER_LEN + i * SECTION_ENTRY_LEN;
            let id = read_u32_at(bytes, entry);
            let offset = read_u64_at(bytes, entry + 8);
            let len = read_u64_at(bytes, entry + 16);
            let end = offset.checked_add(len).ok_or_else(|| {
                SnapshotError::Malformed(format!("section {id}: offset + length overflows"))
            })?;
            if end > bytes.len() as u64 {
                return Err(SnapshotError::Truncated);
            }
            if !offset.is_multiple_of(8) {
                return Err(SnapshotError::Malformed(format!(
                    "section {id}: offset {offset} is not 8-byte aligned"
                )));
            }
            if sections.iter().any(|(existing, _, _)| *existing == id) {
                return Err(SnapshotError::Malformed(format!(
                    "duplicate section id {id}"
                )));
            }
            sections.push((id, offset as usize, len as usize));
        }
        Ok(Snapshot {
            region,
            kind,
            sections,
        })
    }

    /// The payload kind stored in the header.
    pub fn kind(&self) -> u32 {
        self.kind
    }

    /// Returns `true` if the backing region is an `mmap` of the file.
    pub fn is_mapped(&self) -> bool {
        self.region.is_mapped()
    }

    /// Errors unless the snapshot holds the expected payload kind.
    pub fn expect_kind(&self, expected: u32) -> SnapshotResult<()> {
        if self.kind == expected {
            Ok(())
        } else {
            Err(SnapshotError::WrongKind {
                expected,
                found: self.kind,
            })
        }
    }

    fn section(&self, id: u32) -> SnapshotResult<(usize, usize)> {
        self.sections
            .iter()
            .find(|(sid, _, _)| *sid == id)
            .map(|&(_, offset, len)| (offset, len))
            .ok_or_else(|| SnapshotError::Malformed(format!("missing section {id}")))
    }

    fn section_elems(&self, id: u32, elem_size: usize) -> SnapshotResult<(usize, usize)> {
        let (offset, len) = self.section(id)?;
        if len % elem_size != 0 {
            return Err(SnapshotError::Malformed(format!(
                "section {id}: {len} bytes is not a multiple of the {elem_size}-byte element"
            )));
        }
        Ok((offset, len / elem_size))
    }

    /// The raw bytes of a section.
    pub fn bytes(&self, id: u32) -> SnapshotResult<&[u8]> {
        let (offset, len) = self.section(id)?;
        Ok(&self.region.bytes()[offset..offset + len])
    }

    /// A `u32` section as a [`FlatVec`] — zero-copy on little-endian targets,
    /// decoded otherwise.
    pub fn flat_u32s(&self, id: u32) -> SnapshotResult<FlatVec<u32>> {
        let (offset, len) = self.section_elems(id, 4)?;
        if cfg!(target_endian = "little") {
            // Safety: bounds validated against the region, offset 8-aligned,
            // u32 is valid for any bit pattern.
            Ok(unsafe { FlatVec::from_region(Arc::clone(&self.region), offset, len) })
        } else {
            let bytes = &self.region.bytes()[offset..offset + len * 4];
            Ok(FlatVec::from_vec(
                bytes
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
                    .collect(),
            ))
        }
    }

    /// A `u64` section as a [`FlatVec`].
    pub fn flat_u64s(&self, id: u32) -> SnapshotResult<FlatVec<u64>> {
        let (offset, len) = self.section_elems(id, 8)?;
        if cfg!(target_endian = "little") {
            // Safety: as in `flat_u32s`.
            Ok(unsafe { FlatVec::from_region(Arc::clone(&self.region), offset, len) })
        } else {
            let bytes = &self.region.bytes()[offset..offset + len * 8];
            Ok(FlatVec::from_vec(
                bytes
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                    .collect(),
            ))
        }
    }

    /// An `f64` section as a [`FlatVec`] (exact bit patterns).
    pub fn flat_f64s(&self, id: u32) -> SnapshotResult<FlatVec<f64>> {
        let (offset, len) = self.section_elems(id, 8)?;
        if cfg!(target_endian = "little") {
            // Safety: as in `flat_u32s`; every bit pattern is a valid f64.
            Ok(unsafe { FlatVec::from_region(Arc::clone(&self.region), offset, len) })
        } else {
            let bytes = &self.region.bytes()[offset..offset + len * 8];
            Ok(FlatVec::from_vec(
                bytes
                    .chunks_exact(8)
                    .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
                    .collect(),
            ))
        }
    }

    /// A section of `u32` pairs viewed as 8-byte pair elements `T` — zero-copy
    /// when the target is little-endian **and** `layout_ok` (the caller's
    /// runtime proof that `T` is laid out as two consecutive `u32`s);
    /// otherwise decoded pairwise through `decode`.
    pub fn flat_u32_pairs<T, F>(
        &self,
        id: u32,
        layout_ok: bool,
        decode: F,
    ) -> SnapshotResult<FlatVec<T>>
    where
        T: SectionElement,
        F: Fn(u32, u32) -> T,
    {
        debug_assert_eq!(std::mem::size_of::<T>(), 8);
        let (offset, len) = self.section_elems(id, 8)?;
        if cfg!(target_endian = "little") && layout_ok {
            // Safety: bounds/alignment validated; `layout_ok` certifies the
            // pair layout matches two consecutive u32s.
            Ok(unsafe { FlatVec::from_region(Arc::clone(&self.region), offset, len) })
        } else {
            let bytes = &self.region.bytes()[offset..offset + len * 8];
            Ok(FlatVec::from_vec(
                bytes
                    .chunks_exact(8)
                    .map(|c| {
                        decode(
                            u32::from_le_bytes(c[0..4].try_into().expect("4 bytes")),
                            u32::from_le_bytes(c[4..8].try_into().expect("4 bytes")),
                        )
                    })
                    .collect(),
            ))
        }
    }

    /// Decodes a `u64` section into an owned vector (for small metadata
    /// sections where a view buys nothing).
    pub fn u64s_vec(&self, id: u32) -> SnapshotResult<Vec<u64>> {
        Ok(self.flat_u64s(id)?.as_slice().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = SnapshotWriter::new(KIND_INDEX);
        w.add_u32s(7, &[1, 2, 3]);
        w.add_u64s(9, &[u64::MAX, 0]);
        w.add_f64s(11, &[0.5, -1.25]);
        w.finish()
    }

    fn open_bytes(bytes: &[u8]) -> SnapshotResult<Snapshot> {
        let path = std::env::temp_dir().join(format!(
            "icde_snapshot_fmt_{}_{}.bin",
            std::process::id(),
            fnv1a(bytes)
        ));
        std::fs::write(&path, bytes).unwrap();
        let result = Snapshot::open_with(&path, LoadMode::Buffered);
        let _ = std::fs::remove_file(path);
        result
    }

    #[test]
    fn roundtrip_sections() {
        let snap = open_bytes(&sample()).unwrap();
        assert_eq!(snap.kind(), KIND_INDEX);
        assert_eq!(&snap.flat_u32s(7).unwrap()[..], &[1, 2, 3]);
        assert_eq!(&snap.flat_u64s(9).unwrap()[..], &[u64::MAX, 0]);
        assert_eq!(&snap.flat_f64s(11).unwrap()[..], &[0.5, -1.25]);
        assert!(snap.bytes(99).is_err());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut bytes = sample();
        bytes[0] = b'X';
        assert!(matches!(open_bytes(&bytes), Err(SnapshotError::BadMagic)));
        // a file shorter than the header is still judged by its magic first
        assert!(matches!(open_bytes(b"hello"), Err(SnapshotError::BadMagic)));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = sample();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            open_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn flipped_bit_fails_checksum() {
        let mut bytes = sample();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            open_bytes(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_is_rejected_at_every_length() {
        let bytes = sample();
        for len in 0..bytes.len() {
            let opened = open_bytes(&bytes[..len]);
            assert!(opened.is_err(), "prefix of {len} bytes");
            if len < HEADER_LEN {
                assert!(
                    matches!(opened, Err(SnapshotError::Truncated)),
                    "prefix of {len} bytes"
                );
            }
        }
    }

    #[test]
    fn wrong_kind_is_reported() {
        let snap = open_bytes(&sample()).unwrap();
        assert!(snap.expect_kind(KIND_INDEX).is_ok());
        assert!(matches!(
            snap.expect_kind(KIND_GRAPH),
            Err(SnapshotError::WrongKind { .. })
        ));
    }
}
