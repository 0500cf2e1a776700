//! Index persistence.
//!
//! Precomputation is the expensive phase (hours at paper scale, Figure 6);
//! a production deployment builds the index once and serves queries from
//! many processes. This module serialises a [`KdashIndex`] to a compact
//! little-endian binary format (magic + version header, then the raw
//! arrays) and validates every structural invariant on load, so a
//! corrupted or truncated file yields a typed [`PersistError`] instead of
//! wrong answers. [`save_atomic`] adds the crash-safe write protocol
//! (temp file → fsync → rename) every index-writing path should use.
//!
//! # Format versions
//!
//! * **v5** (current): v4 plus a **dropped-mass section** between the
//!   estimator constants and the trailer: the drop tolerance `ε` the
//!   stored inverses were truncated with, then the per-column dropped ℓ₁
//!   masses of `L⁻¹` and `U⁻¹` — what the certified refinement loop needs
//!   to keep sparsified answers exact. The section is checksummed like
//!   every other. v1–v4 files still load, flagged dense-exact (`ε = 0`,
//!   zero masses) — which is what they are.
//! * **v4**: v3 with integrity checksums. Every section —
//!   header, permutation, graph arrays, `L⁻¹`, `U⁻¹`, row stats,
//!   estimator constants, trailer — is followed by its CRC32 (IEEE), and
//!   the file ends with a `KDASHEND` footer carrying the CRC32 of the
//!   whole byte stream before it. Load verifies each section checksum in
//!   stream order and the footer last, so corruption is reported with
//!   the failing [`Section`] and byte offset
//!   ([`PersistError::ChecksumMismatch`]). v1–v3 files still load,
//!   reported as unchecksummed in [`LoadInfo`] — re-save to add
//!   checksums.
//! * **v3**: v2 plus a dynamic-update trailer — the dangling-node policy
//!   tag (incremental updates must renormalise edited transition columns
//!   exactly as the build did) and the **update-epoch counter** (how
//!   many `kdash-dynamic` batches have been applied since the
//!   from-scratch build; `kdash info` prints it). v1/v2 files still load
//!   with epoch 0 and the default `Keep` policy.
//! * **v2**: after the shared header and `L⁻¹`, a one-byte row
//!   **layout tag** selects how `U⁻¹` is encoded — flat CSC transpose
//!   arrays (as v1) or the blocked arrays of
//!   [`kdash_sparse::BlockedCsr`] (run anchors + `u16` deltas, the
//!   bandwidth-lean on-disk *and* in-memory form). The writer always
//!   emits the blocked tag; a flat-tagged section still loads and is
//!   re-encoded blocked. A packed **row-stats section** follows: per row
//!   of `U⁻¹`, its stored-entry count and first and last column
//!   (`u32` each, zeros for an empty row), computed from the rows at save
//!   time. On load it is checked against the same stats recomputed from
//!   the arrays, so a corrupted section is rejected.
//! * **v1**: the flat-only format of earlier releases. Still loads — the
//!   matrix is re-encoded blocked on read, so old index files
//!   transparently gain the blocked read path. ([`KdashIndex::save_v1`]
//!   remains, hidden, so the compatibility path stays testable.)

use crate::{KdashIndex, NodeOrdering};
use kdash_graph::{CsrGraph, Permutation};
use kdash_sparse::{BlockedCsr, CscMatrix, CsrMatrix, Index};
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"KDASHIDX";
const FOOTER_MAGIC: &[u8; 8] = b"KDASHEND";
const VERSION: u32 = 5;
/// First format version carrying the dropped-mass section.
const VERSION_SPARSIFIED: u32 = 5;
/// First format version with per-section and whole-file checksums.
const VERSION_CHECKSUMMED: u32 = 4;
const LAYOUT_FLAT: u8 = 0;
const LAYOUT_BLOCKED: u8 = 1;
const DANGLING_KEEP: u8 = 0;
const DANGLING_SELF_LOOP: u8 = 1;

/// The on-disk section an error was detected in. Section boundaries are
/// the checksum boundaries of the v4 format, in stream order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// Magic, version, restart probability, ordering, node count.
    Header,
    /// The node permutation (new order).
    Permutation,
    /// The permuted graph's CSR arrays.
    Graph,
    /// `L⁻¹` in CSC form.
    Linv,
    /// `U⁻¹` under its row-layout tag (flat CSC transpose or blocked).
    Uinv,
    /// The packed per-row stats of `U⁻¹` (nnz, first and last column).
    RowStats,
    /// The estimator constants (`A_max(v)`, `A_max`, `c'`).
    Estimator,
    /// The sparsification record (v5+): drop tolerance `ε` and the
    /// per-column dropped ℓ₁ masses of both stored inverses.
    DroppedMass,
    /// The dynamic-update trailer (dangling policy, update epoch).
    Trailer,
    /// The `KDASHEND` + whole-file-CRC footer.
    Footer,
    /// Cross-section consistency (final index assembly).
    Index,
}

impl Section {
    /// Stable lowercase name, used in error messages and the
    /// `kdash verify` report.
    pub fn name(self) -> &'static str {
        match self {
            Section::Header => "header",
            Section::Permutation => "permutation",
            Section::Graph => "graph",
            Section::Linv => "linv",
            Section::Uinv => "uinv",
            Section::RowStats => "row-stats",
            Section::Estimator => "estimator",
            Section::DroppedMass => "dropped-mass",
            Section::Trailer => "trailer",
            Section::Footer => "footer",
            Section::Index => "index",
        }
    }
}

impl std::fmt::Display for Section {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The phase of a persistence operation an I/O failure occurred in.
///
/// [`save_atomic`] is a four-step protocol (write the temp file, fsync
/// it, rename it over the destination, fsync the directory) and the
/// right operator response differs per step — a full disk at tmp-write
/// is routine, a failed rename means the destination directory itself is
/// suspect — so [`PersistError::Io`] names the step instead of handing
/// back a bare `io::Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoStage {
    /// Reading an index file (load path).
    Read,
    /// Serialising into the temporary `<path>.tmp` file.
    TmpWrite,
    /// Fsyncing the fully-written temporary file.
    Fsync,
    /// Renaming the temporary file over the destination.
    Rename,
    /// Fsyncing the parent directory to make the rename durable.
    DirFsync,
}

impl IoStage {
    /// Stable lowercase name, used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            IoStage::Read => "read",
            IoStage::TmpWrite => "tmp-write",
            IoStage::Fsync => "fsync",
            IoStage::Rename => "rename",
            IoStage::DirFsync => "dir-fsync",
        }
    }
}

impl std::fmt::Display for IoStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why an index file failed to load. Every failure names the section it
/// was detected in and (where meaningful) the byte offset, so an operator
/// can tell a truncated copy from a flipped sector from a version skew.
#[derive(Debug)]
pub enum PersistError {
    /// An underlying I/O failure that is not a malformed file (e.g. a
    /// read permission error). End-of-file inside a section is reported
    /// as [`Corrupt`](Self::Corrupt) instead. `stage` names the phase of
    /// the protocol that failed — on the save path, after transient
    /// (`EINTR`-class) failures were already retried with bounded
    /// backoff.
    Io {
        /// The protocol step the failure occurred in.
        stage: IoStage,
        /// The underlying error.
        error: io::Error,
    },
    /// The file does not start with the `KDASHIDX` magic.
    BadMagic,
    /// The file's format version is outside the supported range.
    UnsupportedVersion(u32),
    /// The file's structure is invalid: truncation, an impossible count
    /// field, a failed structural invariant, or a non-finite value.
    Corrupt {
        /// The section the damage was detected in.
        section: Section,
        /// Byte offset (from the start of the file) of the failing read
        /// or field.
        offset: u64,
        /// Human-readable description of the violated invariant.
        detail: String,
    },
    /// A stored CRC32 disagrees with the checksum of the bytes actually
    /// read — the file was modified or damaged after it was written.
    ChecksumMismatch {
        /// The section whose checksum failed (or [`Section::Footer`] for
        /// the whole-file CRC).
        section: Section,
        /// Byte offset of the stored checksum field.
        offset: u64,
        /// The checksum stored in the file.
        stored: u32,
        /// The checksum computed over the bytes read.
        computed: u32,
    },
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io { stage, error } => write!(f, "i/o error during {stage}: {error}"),
            PersistError::BadMagic => write!(f, "bad magic — not a K-dash index file"),
            PersistError::UnsupportedVersion(v) => {
                write!(f, "unsupported index version {v} (this build reads 1..={VERSION})")
            }
            PersistError::Corrupt { section, offset, detail } => {
                write!(f, "corrupt index file ({section} section, byte {offset}): {detail}")
            }
            PersistError::ChecksumMismatch { section, offset, stored, computed } => {
                write!(
                    f,
                    "checksum mismatch in {section} section (crc field at byte {offset}): \
                     stored {stored:#010x}, computed {computed:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io { stage: IoStage::Read, error: e }
    }
}

/// What [`KdashIndex::load_with_info`] learned about the file besides the
/// index itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadInfo {
    /// The on-disk format version the file was written in.
    pub version: u32,
    /// Whether the file carried (and passed) integrity checksums. `false`
    /// for v1–v3 legacy files — structurally validated but not protected
    /// against silent bit rot; re-save to upgrade.
    pub checksummed: bool,
    /// The update epoch the snapshot was taken at (0 for an index that
    /// was never incrementally updated). Recovery tooling compares this
    /// against a sidecar journal's epoch range without re-deriving it
    /// from the index.
    pub update_epoch: u64,
}

fn corrupt(section: Section, offset: u64, detail: impl Into<String>) -> PersistError {
    PersistError::Corrupt { section, offset, detail: detail.into() }
}

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, the polynomial zlib/PNG use), table-driven and
// dependency-free. The table is built at compile time.
// ---------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

#[derive(Clone, Copy)]
struct Crc32(u32);

impl Crc32 {
    fn new() -> Self {
        Crc32(0xFFFF_FFFF)
    }

    fn update(&mut self, bytes: &[u8]) {
        let mut state = self.0;
        for &b in bytes {
            state = (state >> 8) ^ CRC_TABLE[((state ^ b as u32) & 0xFF) as usize];
        }
        self.0 = state;
    }

    fn value(&self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC32 (IEEE 802.3) of `bytes` — the same table-driven
/// implementation that checksums index sections, exported so sibling
/// formats (the `kdash-dynamic` update journal) frame their records
/// with bit-identical checksums instead of a second implementation.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.value()
}

/// A writer that tracks the running whole-file and per-section CRCs and
/// the byte offset. Section payloads go through the [`Write`] impl; the
/// CRC fields themselves are emitted by [`end_section`] /
/// [`write_footer`] (they feed the file CRC but never a section CRC).
struct SectionWriter<W: Write> {
    inner: W,
    offset: u64,
    file: Crc32,
    section: Crc32,
}

impl<W: Write> SectionWriter<W> {
    fn new(inner: W) -> Self {
        SectionWriter { inner, offset: 0, file: Crc32::new(), section: Crc32::new() }
    }

    /// Closes the current section: writes its CRC32 and resets the
    /// section state. Returns the offset *after* the CRC field — the
    /// section boundary the corruption sweep flips around.
    fn end_section(&mut self) -> io::Result<u64> {
        let crc = self.section.value().to_le_bytes();
        self.inner.write_all(&crc)?;
        self.file.update(&crc);
        self.offset += 4;
        self.section = Crc32::new();
        Ok(self.offset)
    }

    /// Writes the `KDASHEND` footer with the whole-file CRC (which covers
    /// every preceding byte, section CRC fields included).
    fn write_footer(&mut self) -> io::Result<u64> {
        let file_crc = self.file.value().to_le_bytes();
        self.inner.write_all(FOOTER_MAGIC)?;
        self.inner.write_all(&file_crc)?;
        self.offset += 12;
        Ok(self.offset)
    }
}

impl<W: Write> Write for SectionWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write_all(buf)?;
        self.file.update(buf);
        self.section.update(buf);
        self.offset += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// The reading twin: every payload read feeds both CRCs, EOF inside a
/// section is reported as [`PersistError::Corrupt`] at the failing
/// offset, and [`end_section`](Self::end_section) verifies the stored
/// section CRC (a no-op on unchecksummed legacy versions).
struct SectionReader<R: Read> {
    inner: R,
    offset: u64,
    file: Crc32,
    section: Crc32,
    /// Set once the version field is known; legacy files skip every
    /// checksum verification but share the same parse path.
    checksummed: bool,
}

impl<R: Read> SectionReader<R> {
    fn new(inner: R) -> Self {
        SectionReader {
            inner,
            offset: 0,
            file: Crc32::new(),
            section: Crc32::new(),
            checksummed: false,
        }
    }

    fn offset(&self) -> u64 {
        self.offset
    }

    /// Reads exactly `buf.len()` payload bytes for `section`.
    fn fill(&mut self, buf: &mut [u8], section: Section) -> Result<(), PersistError> {
        let at = self.offset;
        self.inner.read_exact(buf).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                corrupt(section, at, "unexpected end of file")
            } else {
                PersistError::from(e)
            }
        })?;
        self.file.update(buf);
        self.section.update(buf);
        self.offset += buf.len() as u64;
        Ok(())
    }

    /// Verifies and consumes the section's CRC field (v4+), then resets
    /// the section checksum state for the next section.
    fn end_section(&mut self, section: Section) -> Result<(), PersistError> {
        if self.checksummed {
            let computed = self.section.value();
            let at = self.offset;
            let mut b = [0u8; 4];
            self.inner.read_exact(&mut b).map_err(|e| {
                if e.kind() == io::ErrorKind::UnexpectedEof {
                    corrupt(section, at, "unexpected end of file in checksum field")
                } else {
                    PersistError::from(e)
                }
            })?;
            self.file.update(&b);
            self.offset += 4;
            let stored = u32::from_le_bytes(b);
            if stored != computed {
                return Err(PersistError::ChecksumMismatch {
                    section,
                    offset: at,
                    stored,
                    computed,
                });
            }
        }
        self.section = Crc32::new();
        Ok(())
    }

    /// Verifies the `KDASHEND` + whole-file-CRC footer (v4+).
    fn verify_footer(&mut self) -> Result<(), PersistError> {
        if !self.checksummed {
            return Ok(());
        }
        let computed = self.file.value();
        let at = self.offset;
        let mut b = [0u8; 12];
        self.inner.read_exact(&mut b).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                corrupt(Section::Footer, at, "unexpected end of file in footer")
            } else {
                PersistError::from(e)
            }
        })?;
        self.offset += 12;
        if &b[..8] != FOOTER_MAGIC {
            return Err(corrupt(Section::Footer, at, "bad footer magic"));
        }
        let stored = u32::from_le_bytes([b[8], b[9], b[10], b[11]]);
        if stored != computed {
            return Err(PersistError::ChecksumMismatch {
                section: Section::Footer,
                offset: at + 8,
                stored,
                computed,
            });
        }
        Ok(())
    }

    fn u8(&mut self, sec: Section) -> Result<u8, PersistError> {
        let mut b = [0u8; 1];
        self.fill(&mut b, sec)?;
        Ok(b[0])
    }

    fn u16(&mut self, sec: Section) -> Result<u16, PersistError> {
        let mut b = [0u8; 2];
        self.fill(&mut b, sec)?;
        Ok(u16::from_le_bytes(b))
    }

    fn u32(&mut self, sec: Section) -> Result<u32, PersistError> {
        let mut b = [0u8; 4];
        self.fill(&mut b, sec)?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self, sec: Section) -> Result<u64, PersistError> {
        let mut b = [0u8; 8];
        self.fill(&mut b, sec)?;
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self, sec: Section) -> Result<f64, PersistError> {
        let mut b = [0u8; 8];
        self.fill(&mut b, sec)?;
        Ok(f64::from_le_bytes(b))
    }

    fn u16_vec(&mut self, sec: Section, len: usize) -> Result<Vec<u16>, PersistError> {
        let mut out = Vec::with_capacity(len.min(MAX_TRUSTED_PREALLOC));
        for _ in 0..len {
            out.push(self.u16(sec)?);
        }
        Ok(out)
    }

    fn u32_vec(&mut self, sec: Section, len: usize) -> Result<Vec<u32>, PersistError> {
        let mut out = Vec::with_capacity(len.min(MAX_TRUSTED_PREALLOC));
        for _ in 0..len {
            out.push(self.u32(sec)?);
        }
        Ok(out)
    }

    fn usize_vec(&mut self, sec: Section, len: usize) -> Result<Vec<usize>, PersistError> {
        let mut out = Vec::with_capacity(len.min(MAX_TRUSTED_PREALLOC));
        for _ in 0..len {
            out.push(self.u64(sec)? as usize);
        }
        Ok(out)
    }

    /// Reads `len` f64s, rejecting non-finite values (nothing in the
    /// index is legitimately NaN or infinite).
    fn f64_vec(&mut self, sec: Section, len: usize) -> Result<Vec<f64>, PersistError> {
        let mut out = Vec::with_capacity(len.min(MAX_TRUSTED_PREALLOC));
        for _ in 0..len {
            let at = self.offset;
            let v = self.f64(sec)?;
            if !v.is_finite() {
                return Err(corrupt(sec, at, "non-finite value in index file"));
            }
            out.push(v);
        }
        Ok(out)
    }
}

impl KdashIndex {
    /// Serialises the index in the current (v5, checksummed) format,
    /// preserving the update epoch. The raw LU factors (if kept) are not
    /// persisted — reload yields an index without the
    /// `proximities_via_factors` ablation path (the dynamic engine
    /// refactorises once on attach instead).
    ///
    /// For writing to a *file*, prefer [`save_atomic`], which adds the
    /// crash-safe temp-file → fsync → rename protocol.
    pub fn save<W: Write>(&self, w: W) -> io::Result<()> {
        self.save_with_section_offsets(w).map(|_| ())
    }

    /// [`save`](Self::save) that also returns the `(section name, end
    /// offset)` boundary of every checksummed section (the offset is one
    /// past the section's CRC field; the last entry is the footer).
    /// Hidden — exists so the byte-level corruption sweep in
    /// `tests/persist_roundtrip.rs` can target exact section boundaries
    /// without hardcoding the layout arithmetic.
    #[doc(hidden)]
    pub fn save_with_section_offsets<W: Write>(
        &self,
        w: W,
    ) -> io::Result<Vec<(&'static str, u64)>> {
        self.save_versioned(w, VERSION)
    }

    /// Serialises in the v4 (checksummed, pre-sparsification) format.
    /// Rejects sparsified-tier indexes — v4 has nowhere to record the
    /// drop tolerance or the dropped masses. Kept solely so the v4 → v5
    /// upgrade path stays covered by tests against real v4 bytes.
    #[doc(hidden)]
    pub fn save_v4<W: Write>(&self, w: W) -> io::Result<()> {
        if self.is_sparsified() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a sparsified-tier index cannot be saved in the v4 format (it records no \
                 drop tolerance) — use the current format",
            ));
        }
        self.save_versioned(w, VERSION_CHECKSUMMED).map(|_| ())
    }

    fn save_versioned<W: Write>(
        &self,
        w: W,
        version: u32,
    ) -> io::Result<Vec<(&'static str, u64)>> {
        let mut w = SectionWriter::new(w);
        let mut marks = Vec::with_capacity(10);

        // Header.
        w.write_all(MAGIC)?;
        write_u32(&mut w, version)?;
        write_f64(&mut w, self.restart_probability())?;
        let (tag, seed) = encode_ordering(self.ordering());
        w.write_all(&[tag])?;
        write_u64(&mut w, seed)?;
        write_u64(&mut w, self.num_nodes() as u64)?;
        marks.push((Section::Header.name(), w.end_section()?));

        // Permutation.
        write_u32_slice(&mut w, self.permutation().order())?;
        marks.push((Section::Permutation.name(), w.end_section()?));

        // Permuted graph.
        let (row_ptr, col_idx, weights) = self.permuted_graph().raw();
        write_usize_slice(&mut w, row_ptr)?;
        write_u64(&mut w, col_idx.len() as u64)?;
        write_u32_slice(&mut w, col_idx)?;
        write_f64_slice(&mut w, weights)?;
        marks.push((Section::Graph.name(), w.end_section()?));

        // L⁻¹ (CSC).
        write_csc(&mut w, self.linv())?;
        marks.push((Section::Linv.name(), w.end_section()?));

        // U⁻¹ under the blocked tag.
        let uinv = self.uinv_rows();
        w.write_all(&[LAYOUT_BLOCKED])?;
        let (row_ptr, run_ptr, run_base, run_end, deltas, values) = uinv.raw();
        write_usize_slice(&mut w, row_ptr)?;
        write_u64(&mut w, run_base.len() as u64)?;
        write_usize_slice(&mut w, run_ptr)?;
        write_u32_slice(&mut w, run_base)?;
        write_u32_slice(&mut w, run_end)?;
        write_u64(&mut w, deltas.len() as u64)?;
        write_u16_slice(&mut w, deltas)?;
        write_f64_slice(&mut w, values)?;
        marks.push((Section::Uinv.name(), w.end_section()?));

        // The per-row stats of U⁻¹, computed from the rows.
        for r in 0..uinv.nrows() as Index {
            for field in row_stat(uinv, r) {
                write_u32(&mut w, field)?;
            }
        }
        marks.push((Section::RowStats.name(), w.end_section()?));

        // Estimator constants.
        self.write_estimator(&mut w)?;
        marks.push((Section::Estimator.name(), w.end_section()?));

        // The sparsification record (v5): drop tolerance + per-column
        // dropped ℓ₁ masses of both inverses.
        if version >= VERSION_SPARSIFIED {
            write_f64(&mut w, self.drop_tolerance())?;
            let (linv_dropped, uinv_dropped) = self.dropped_masses();
            write_f64_slice(&mut w, linv_dropped)?;
            write_f64_slice(&mut w, uinv_dropped)?;
            marks.push((Section::DroppedMass.name(), w.end_section()?));
        }

        // The dynamic-update trailer.
        let dangling_tag = match self.dangling_policy() {
            kdash_sparse::DanglingPolicy::Keep => DANGLING_KEEP,
            kdash_sparse::DanglingPolicy::SelfLoop => DANGLING_SELF_LOOP,
        };
        w.write_all(&[dangling_tag])?;
        write_u64(&mut w, self.update_epoch())?;
        marks.push((Section::Trailer.name(), w.end_section()?));

        marks.push((Section::Footer.name(), w.write_footer()?));
        Ok(marks)
    }

    /// Serialises in the legacy v1 (flat-only, unchecksummed) format.
    /// Kept solely so the v1→v4 upgrade path stays covered by tests
    /// against real v1 bytes.
    #[doc(hidden)]
    pub fn save_v1<W: Write>(&self, mut w: W) -> io::Result<()> {
        if self.needs_refinement() {
            // The legacy format has nowhere to put the dropped masses; a
            // reload would silently skip refinement and answer wrong.
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "sparsified indexes cannot be written in the legacy v1 format",
            ));
        }
        w.write_all(MAGIC)?;
        write_u32(&mut w, 1)?;
        write_f64(&mut w, self.restart_probability())?;
        let (tag, seed) = encode_ordering(self.ordering());
        w.write_all(&[tag])?;
        write_u64(&mut w, seed)?;
        write_u64(&mut w, self.num_nodes() as u64)?;
        write_u32_slice(&mut w, self.permutation().order())?;
        let (row_ptr, col_idx, weights) = self.permuted_graph().raw();
        write_usize_slice(&mut w, row_ptr)?;
        write_u64(&mut w, col_idx.len() as u64)?;
        write_u32_slice(&mut w, col_idx)?;
        write_f64_slice(&mut w, weights)?;
        write_csc(&mut w, self.linv())?;
        write_csc(&mut w, &self.uinv_rows().to_csr().to_csc())?;
        self.write_estimator(&mut w)
    }

    /// The estimator-constant section shared by every version.
    fn write_estimator<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write_f64_slice(w, self.a_col_max())?;
        write_f64(w, self.a_max())?;
        write_f64_slice(w, self.c_prime())?;
        Ok(())
    }

    /// Deserialises an index previously written by [`save`](Self::save)
    /// (any version 1–4), re-validating all structural invariants and —
    /// for v4 files — every integrity checksum. A flat `U⁻¹` (v1, or a
    /// flat-tagged v2+ section) is re-encoded blocked on read
    /// (bit-identical values, so bit-identical answers). Build-time
    /// statistics are not stored; the loaded index reports zero durations
    /// with the correct nnz counts.
    pub fn load<R: Read>(r: R) -> Result<KdashIndex, PersistError> {
        Self::load_with_info(r).map(|(index, _)| index)
    }

    /// [`load`](Self::load) that also reports the file's format version
    /// and whether it carried (and passed) integrity checksums — the
    /// "unchecksummed legacy file" audit flag `kdash verify` surfaces.
    pub fn load_with_info<R: Read>(r: R) -> Result<(KdashIndex, LoadInfo), PersistError> {
        let mut r = SectionReader::new(r);

        // Header.
        let mut magic = [0u8; 8];
        r.fill(&mut magic, Section::Header)?;
        if &magic != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = r.u32(Section::Header)?;
        if !(1..=VERSION).contains(&version) {
            return Err(PersistError::UnsupportedVersion(version));
        }
        r.checksummed = version >= VERSION_CHECKSUMMED;
        let c = r.f64(Section::Header)?;
        let tag_at = r.offset();
        let tag = r.u8(Section::Header)?;
        let seed = r.u64(Section::Header)?;
        let ordering = decode_ordering(tag, seed)
            .ok_or_else(|| corrupt(Section::Header, tag_at, format!("unknown ordering tag {tag}")))?;
        let n = r.u64(Section::Header)? as usize;
        r.end_section(Section::Header)?;

        // Permutation: checksum first, then the bijection check.
        let order = r.u32_vec(Section::Permutation, n)?;
        r.end_section(Section::Permutation)?;
        let at = r.offset();
        let perm = Permutation::from_new_order(order)
            .map_err(|e| corrupt(Section::Permutation, at, format!("corrupt permutation: {e}")))?;

        // Permuted graph. The edge-count cross-check runs before the
        // count sizes any read, so an inflated field can never trigger a
        // huge allocation — checksummed or not.
        let row_ptr = r.usize_vec(Section::Graph, n + 1)?;
        let m_at = r.offset();
        let m = r.u64(Section::Graph)? as usize;
        if m != row_ptr.last().copied().unwrap_or(0) {
            return Err(corrupt(
                Section::Graph,
                m_at,
                "graph edge count disagrees with row pointers",
            ));
        }
        let col_idx = r.u32_vec(Section::Graph, m)?;
        let weights = r.f64_vec(Section::Graph, m)?;
        r.end_section(Section::Graph)?;
        let at = r.offset();
        let graph = CsrGraph::from_raw_parts(row_ptr, col_idx, weights)
            .map_err(|e| corrupt(Section::Graph, at, format!("corrupt graph: {e}")))?;

        // L⁻¹ (CSC).
        let linv_arrays = read_csc_arrays(&mut r, Section::Linv, n)?;
        r.end_section(Section::Linv)?;
        let linv = build_csc(n, linv_arrays, Section::Linv, r.offset())?;

        // U⁻¹. A flat encoding (v1, or the flat tag) is re-encoded blocked.
        let read_flat = |r: &mut SectionReader<R>| -> Result<BlockedCsr, PersistError> {
            let arrays = read_csc_arrays(r, Section::Uinv, n)?;
            r.end_section(Section::Uinv)?;
            let flat = CsrMatrix::from_csc(&build_csc(n, arrays, Section::Uinv, r.offset())?);
            BlockedCsr::from_csr(flat)
                .map_err(|e| corrupt(Section::Uinv, r.offset(), format!("corrupt U⁻¹: {e}")))
        };
        let uinv = if version == 1 {
            read_flat(&mut r)?
        } else {
            let tag_at = r.offset();
            let layout_tag = r.u8(Section::Uinv)?;
            match layout_tag {
                LAYOUT_FLAT => read_flat(&mut r)?,
                LAYOUT_BLOCKED => {
                    // The count fields are untrusted on-disk data: they
                    // are cross-checked against the pointer arrays here,
                    // and every vector read caps its pre-allocation, so
                    // a corrupted count surfaces as a typed error —
                    // never a capacity panic or an OOM abort. The format
                    // invariants: nnz ≤ u32::MAX (run offsets are u32)
                    // and every row has at most one run per nonzero.
                    let b_row_ptr = r.usize_vec(Section::Uinv, n + 1)?;
                    let expect_nnz = b_row_ptr.last().copied().unwrap_or(0);
                    if expect_nnz > u32::MAX as usize {
                        return Err(corrupt(
                            Section::Uinv,
                            r.offset(),
                            "blocked U⁻¹ claims ≥ 2^32 entries",
                        ));
                    }
                    let nruns_at = r.offset();
                    let nruns = r.u64(Section::Uinv)? as usize;
                    if nruns > expect_nnz {
                        return Err(corrupt(
                            Section::Uinv,
                            nruns_at,
                            "blocked U⁻¹ claims more runs than entries",
                        ));
                    }
                    let run_ptr = r.usize_vec(Section::Uinv, n + 1)?;
                    let run_base = r.u32_vec(Section::Uinv, nruns)?;
                    let run_end = r.u32_vec(Section::Uinv, nruns)?;
                    let nnz_at = r.offset();
                    let nnz = r.u64(Section::Uinv)? as usize;
                    if nnz != expect_nnz {
                        return Err(corrupt(
                            Section::Uinv,
                            nnz_at,
                            "blocked U⁻¹ entry count disagrees with row pointers",
                        ));
                    }
                    let deltas = r.u16_vec(Section::Uinv, nnz)?;
                    let values = r.f64_vec(Section::Uinv, nnz)?;
                    r.end_section(Section::Uinv)?;
                    BlockedCsr::from_raw_parts(
                        n, n, b_row_ptr, run_ptr, run_base, run_end, deltas, values,
                    )
                    .map_err(|e| {
                        corrupt(Section::Uinv, r.offset(), format!("corrupt blocked U⁻¹: {e}"))
                    })?
                }
                other => {
                    return Err(corrupt(
                        Section::Uinv,
                        tag_at,
                        format!("unknown row-layout tag {other}"),
                    ))
                }
            }
        };

        // The persisted row stats (v2+) must match the arrays they claim
        // to describe: a mismatch means either section is corrupt.
        if version >= 2 {
            for i in 0..n as Index {
                let at = r.offset();
                let got = [
                    r.u32(Section::RowStats)?,
                    r.u32(Section::RowStats)?,
                    r.u32(Section::RowStats)?,
                ];
                if got != row_stat(&uinv, i) {
                    return Err(corrupt(
                        Section::RowStats,
                        at,
                        format!("row-stats section disagrees with U⁻¹ at row {i}"),
                    ));
                }
            }
            r.end_section(Section::RowStats)?;
        }

        // Estimator constants.
        let a_col_max = r.f64_vec(Section::Estimator, n)?;
        let a_max = r.f64(Section::Estimator)?;
        let c_prime = r.f64_vec(Section::Estimator, n)?;
        r.end_section(Section::Estimator)?;

        // The v5 sparsification record; earlier versions are dense-exact
        // by construction (ε = 0, nothing dropped).
        let (drop_tolerance, linv_dropped, uinv_dropped) = if version >= VERSION_SPARSIFIED {
            let eps_at = r.offset();
            let eps = r.f64(Section::DroppedMass)?;
            if !(eps.is_finite() && eps >= 0.0) {
                return Err(corrupt(
                    Section::DroppedMass,
                    eps_at,
                    format!("drop tolerance {eps} must be finite and >= 0"),
                ));
            }
            let masses_at = r.offset();
            let linv_dropped = r.f64_vec(Section::DroppedMass, n)?;
            let uinv_dropped = r.f64_vec(Section::DroppedMass, n)?;
            if linv_dropped.iter().chain(&uinv_dropped).any(|m| *m < 0.0) {
                return Err(corrupt(
                    Section::DroppedMass,
                    masses_at,
                    "negative dropped-mass entry",
                ));
            }
            r.end_section(Section::DroppedMass)?;
            (eps, linv_dropped, uinv_dropped)
        } else {
            (0.0, vec![0.0; n], vec![0.0; n])
        };

        // The v3 dynamic-update trailer; earlier versions get the
        // defaults a from-scratch build would have.
        let (dangling, update_epoch) = if version >= 3 {
            let tag_at = r.offset();
            let tag = r.u8(Section::Trailer)?;
            let policy = match tag {
                DANGLING_KEEP => kdash_sparse::DanglingPolicy::Keep,
                DANGLING_SELF_LOOP => kdash_sparse::DanglingPolicy::SelfLoop,
                other => {
                    return Err(corrupt(
                        Section::Trailer,
                        tag_at,
                        format!("unknown dangling-policy tag {other}"),
                    ))
                }
            };
            let epoch = r.u64(Section::Trailer)?;
            r.end_section(Section::Trailer)?;
            (policy, epoch)
        } else {
            (kdash_sparse::DanglingPolicy::Keep, 0)
        };

        r.verify_footer()?;
        let end = r.offset();

        let index = KdashIndex::assemble(
            c,
            ordering,
            dangling,
            update_epoch,
            perm,
            graph,
            linv,
            uinv,
            a_col_max,
            a_max,
            c_prime,
            drop_tolerance,
            linv_dropped,
            uinv_dropped,
        )
        .map_err(|e| corrupt(Section::Index, end, format!("inconsistent index components: {e}")))?;
        Ok((
            index,
            LoadInfo { version, checksummed: version >= VERSION_CHECKSUMMED, update_epoch },
        ))
    }
}

/// Atomically writes `index` to `path`: serialise to `<path>.tmp`, flush
/// and fsync, rename over the destination, then fsync the parent
/// directory (best effort) so the rename itself is durable. A crash at
/// any point leaves either the old file or the new one — never a
/// half-written index. Transient failures (`EINTR`-class) are retried
/// with bounded backoff; everything else returns a typed
/// [`PersistError::Io`] naming the failing [`IoStage`]. On error the
/// temp file is removed.
pub fn save_atomic<P: AsRef<Path>>(index: &KdashIndex, path: P) -> Result<(), PersistError> {
    save_atomic_with(index, path, &crate::fault::NoFaults)
}

/// [`save_atomic`] with an injectable fault layer: every write, fsync
/// and rename consults `faults` first, so a crash-point sweep can tear
/// the protocol at any byte and assert the old-or-new guarantee. With
/// [`NoFaults`](crate::fault::NoFaults) this *is* the production path —
/// there is deliberately only one implementation of the protocol.
///
/// An injected crash skips the temp-file cleanup (a dead process does
/// not clean up either), leaving faithful crash debris for recovery
/// tests; real errors still remove the temp file.
pub fn save_atomic_with<P: AsRef<Path>>(
    index: &KdashIndex,
    path: P,
    faults: &dyn crate::fault::FaultInjector,
) -> Result<(), PersistError> {
    use crate::fault::{injected_write, is_injected_crash, retry_transient, sync_parent_dir};

    let path = path.as_ref();
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp_name);

    // Serialise into memory first so the file sees exactly one write
    // call — that gives the fault layer clean torn-prefix semantics
    // (crash after byte k of the file, for every k).
    let mut bytes = Vec::new();
    index.save(&mut bytes).map_err(|error| PersistError::Io { stage: IoStage::TmpWrite, error })?;

    let tmp_label = tmp.display().to_string();
    let result = (|| {
        // Each retry recreates the temp file from scratch, so a torn
        // first attempt cannot leave stale bytes beyond the new write.
        let file = retry_transient(|| {
            let mut f = File::create(&tmp)?;
            injected_write(faults, &tmp_label, &mut f, &bytes)?;
            Ok(f)
        })
        .map_err(|error| PersistError::Io { stage: IoStage::TmpWrite, error })?;
        retry_transient(|| {
            faults.before_fsync(&tmp_label)?;
            file.sync_all()
        })
        .map_err(|error| PersistError::Io { stage: IoStage::Fsync, error })?;
        drop(file);
        let path_label = path.display().to_string();
        retry_transient(|| {
            faults.before_rename(&tmp_label, &path_label)?;
            fs::rename(&tmp, path)
        })
        .map_err(|error| PersistError::Io { stage: IoStage::Rename, error })?;
        // Durability of the rename: fsync the containing directory
        // (filesystems that refuse directory fsync are tolerated inside
        // the helper).
        sync_parent_dir(path, faults)
            .map_err(|error| PersistError::Io { stage: IoStage::DirFsync, error })?;
        Ok(())
    })();
    if let Err(PersistError::Io { error, .. }) = &result {
        if !is_injected_crash(error) {
            let _ = fs::remove_file(&tmp);
        }
    }
    result
}

/// Row `r`'s persisted stats: stored entries, first and last column
/// (zeros for an empty row).
fn row_stat(uinv: &BlockedCsr, r: Index) -> [u32; 3] {
    match (uinv.row_first_col(r), uinv.row_last_col(r)) {
        (Some(first), Some(last)) => [uinv.row_nnz(r) as u32, first, last],
        _ => [0; 3],
    }
}

fn write_csc<W: Write>(w: &mut W, csc: &CscMatrix) -> io::Result<()> {
    let (col_ptr, row_idx, values) = csc.raw();
    write_usize_slice(w, col_ptr)?;
    write_u64(w, row_idx.len() as u64)?;
    write_u32_slice(w, row_idx)?;
    write_f64_slice(w, values)
}

/// Reads the raw arrays of a CSC matrix, cross-checking the count field
/// against the pointer array *before* it sizes any read. Construction
/// (and with it the full structural validation) is deferred to
/// [`build_csc`] so the caller can verify the section checksum first.
#[allow(clippy::type_complexity)]
fn read_csc_arrays<R: Read>(
    r: &mut SectionReader<R>,
    sec: Section,
    n: usize,
) -> Result<(Vec<usize>, Vec<u32>, Vec<f64>), PersistError> {
    let col_ptr = r.usize_vec(sec, n + 1)?;
    let nnz_at = r.offset();
    let nnz = r.u64(sec)? as usize;
    if nnz != col_ptr.last().copied().unwrap_or(0) {
        return Err(corrupt(sec, nnz_at, "matrix entry count disagrees with column pointers"));
    }
    let row_idx = r.u32_vec(sec, nnz)?;
    let values = r.f64_vec(sec, nnz)?;
    Ok((col_ptr, row_idx, values))
}

fn build_csc(
    n: usize,
    (col_ptr, row_idx, values): (Vec<usize>, Vec<u32>, Vec<f64>),
    sec: Section,
    offset: u64,
) -> Result<CscMatrix, PersistError> {
    CscMatrix::from_raw_parts(n, n, col_ptr, row_idx, values)
        .map_err(|e| corrupt(sec, offset, format!("corrupt matrix: {e}")))
}

fn encode_ordering(ordering: NodeOrdering) -> (u8, u64) {
    match ordering {
        NodeOrdering::Natural => (0, 0),
        NodeOrdering::Random { seed } => (1, seed),
        NodeOrdering::Degree => (2, 0),
        NodeOrdering::Cluster => (3, 0),
        NodeOrdering::Hybrid => (4, 0),
        NodeOrdering::ReverseCuthillMcKee => (5, 0),
        NodeOrdering::MinDegree => (6, 0),
    }
}

fn decode_ordering(tag: u8, seed: u64) -> Option<NodeOrdering> {
    Some(match tag {
        0 => NodeOrdering::Natural,
        1 => NodeOrdering::Random { seed },
        2 => NodeOrdering::Degree,
        3 => NodeOrdering::Cluster,
        4 => NodeOrdering::Hybrid,
        5 => NodeOrdering::ReverseCuthillMcKee,
        6 => NodeOrdering::MinDegree,
        _ => return None,
    })
}

fn write_u16<W: Write>(w: &mut W, v: u16) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn write_f64<W: Write>(w: &mut W, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn write_u16_slice<W: Write>(w: &mut W, s: &[u16]) -> io::Result<()> {
    for &v in s {
        write_u16(w, v)?;
    }
    Ok(())
}
fn write_u32_slice<W: Write>(w: &mut W, s: &[u32]) -> io::Result<()> {
    for &v in s {
        write_u32(w, v)?;
    }
    Ok(())
}
fn write_usize_slice<W: Write>(w: &mut W, s: &[usize]) -> io::Result<()> {
    for &v in s {
        write_u64(w, v as u64)?;
    }
    Ok(())
}
fn write_f64_slice<W: Write>(w: &mut W, s: &[f64]) -> io::Result<()> {
    for &v in s {
        write_f64(w, v)?;
    }
    Ok(())
}

/// Cap on the up-front capacity the readers trust an on-disk count for:
/// beyond it the vector grows as bytes actually arrive, so an inflated
/// count field runs into EOF instead of attempting a multi-gigabyte
/// allocation.
const MAX_TRUSTED_PREALLOC: usize = 1 << 20;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexOptions;
    use kdash_graph::GraphBuilder;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn sample_index() -> KdashIndex {
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = GraphBuilder::new(40);
        for v in 0..40u32 {
            for _ in 0..3 {
                let t = rng.gen_range(0..40);
                if t != v {
                    b.add_edge(v, t, rng.gen_range(0.5..2.0));
                }
            }
        }
        KdashIndex::build(&b.build().unwrap(), IndexOptions::default()).unwrap()
    }

    #[test]
    fn roundtrip_preserves_queries() {
        let index = sample_index();
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let loaded = KdashIndex::load(buf.as_slice()).unwrap();
        assert_eq!(loaded.num_nodes(), index.num_nodes());
        assert_eq!(loaded.restart_probability(), index.restart_probability());
        assert_eq!(loaded.ordering(), index.ordering());
        for q in [0u32, 13, 39] {
            let a = index.top_k(q, 7).unwrap();
            let b = loaded.top_k(q, 7).unwrap();
            assert_eq!(a.nodes(), b.nodes());
            for (x, y) in a.items.iter().zip(&b.items) {
                assert_eq!(x.proximity, y.proximity, "bit-exact reload expected");
            }
        }
    }

    #[test]
    fn v1_files_load_and_upgrade_to_blocked() {
        let index = sample_index();
        let mut v1 = Vec::new();
        index.save_v1(&mut v1).unwrap();
        let loaded = KdashIndex::load(v1.as_slice()).unwrap();
        assert_eq!(loaded.uinv_rows(), index.uinv_rows(), "v1 re-encodes blocked on read");
        assert_eq!(loaded.stats().nnz_u_inv, index.stats().nnz_u_inv);
        for q in [0u32, 21, 39] {
            let a = index.top_k(q, 6).unwrap();
            let b = loaded.top_k(q, 6).unwrap();
            assert_eq!(a.nodes(), b.nodes());
            for (x, y) in a.items.iter().zip(&b.items) {
                assert_eq!(x.proximity.to_bits(), y.proximity.to_bits());
            }
        }
    }

    #[test]
    fn loaded_stats_carry_nnz() {
        let index = sample_index();
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let loaded = KdashIndex::load(buf.as_slice()).unwrap();
        assert_eq!(loaded.stats().nnz_l_inv, index.stats().nnz_l_inv);
        assert_eq!(loaded.stats().nnz_u_inv, index.stats().nnz_u_inv);
        assert_eq!(loaded.stats().num_edges, index.stats().num_edges);
        assert_eq!(loaded.stats().uinv_index_bytes, index.stats().uinv_index_bytes);
        assert!(loaded.stats().total_time().is_zero());
    }

    #[test]
    fn v3_trailer_roundtrips_epoch_and_dangling() {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0); // nodes 2..5 dangle
        let g = b.build().unwrap();
        let index = KdashIndex::build(
            &g,
            IndexOptions {
                dangling: kdash_sparse::DanglingPolicy::SelfLoop,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(index.update_epoch(), 0);
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        let loaded = KdashIndex::load(buf.as_slice()).unwrap();
        assert_eq!(loaded.update_epoch(), 0);
        assert_eq!(loaded.dangling_policy(), kdash_sparse::DanglingPolicy::SelfLoop);
        // A v1 file carries no trailer: defaults on load.
        let mut v1 = Vec::new();
        index.save_v1(&mut v1).unwrap();
        let loaded_v1 = KdashIndex::load(v1.as_slice()).unwrap();
        assert_eq!(loaded_v1.update_epoch(), 0);
        assert_eq!(loaded_v1.dangling_policy(), kdash_sparse::DanglingPolicy::Keep);
        // An unknown dangling tag in the trailer is rejected. The file
        // tail is trailer payload (9) + trailer CRC (4) + footer (12) —
        // the dropped-mass section sits before the trailer.
        let tag_off = buf.len() - 25;
        let mut bad = buf.clone();
        bad[tag_off] = 7;
        assert!(KdashIndex::load(bad.as_slice()).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let err = KdashIndex::load(&b"NOTANIDX0000"[..]).unwrap_err();
        assert!(matches!(err, PersistError::BadMagic), "got {err:?}");
    }

    #[test]
    fn truncation_rejected() {
        let index = sample_index();
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        for cut in [10usize, buf.len() / 2, buf.len() - 3] {
            assert!(KdashIndex::load(&buf[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn corruption_rejected() {
        let index = sample_index();
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        // Flip bytes inside the permutation region (the v4 header spans
        // 37 payload bytes + its 4-byte CRC): the permutation section's
        // checksum must catch the damage.
        let off = 8 + 4 + 8 + 1 + 8 + 8 + 4;
        buf[off] ^= 0xFF;
        buf[off + 1] ^= 0xFF;
        let err = KdashIndex::load(buf.as_slice()).unwrap_err();
        assert!(
            matches!(
                err,
                PersistError::ChecksumMismatch { section: Section::Permutation, .. }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn load_info_reports_version_and_checksumming() {
        let index = sample_index();
        let mut v4 = Vec::new();
        index.save(&mut v4).unwrap();
        let (_, info) = KdashIndex::load_with_info(v4.as_slice()).unwrap();
        assert_eq!(info, LoadInfo { version: 5, checksummed: true, update_epoch: 0 });

        let mut v1 = Vec::new();
        index.save_v1(&mut v1).unwrap();
        let (_, info) = KdashIndex::load_with_info(v1.as_slice()).unwrap();
        assert_eq!(info, LoadInfo { version: 1, checksummed: false, update_epoch: 0 });
    }

    #[test]
    fn section_offsets_partition_the_file() {
        let index = sample_index();
        let mut buf = Vec::new();
        let marks = index.save_with_section_offsets(&mut buf).unwrap();
        let names: Vec<&str> = marks.iter().map(|&(name, _)| name).collect();
        assert_eq!(
            names,
            [
                "header",
                "permutation",
                "graph",
                "linv",
                "uinv",
                "row-stats",
                "estimator",
                "dropped-mass",
                "trailer",
                "footer"
            ]
        );
        // Offsets are strictly increasing and the footer ends the file.
        for pair in marks.windows(2) {
            assert!(pair[0].1 < pair[1].1);
        }
        assert_eq!(marks.last().map(|&(_, off)| off), Some(buf.len() as u64));
    }

    #[test]
    fn flipped_section_crc_is_a_checksum_mismatch() {
        let index = sample_index();
        let mut buf = Vec::new();
        let marks = index.save_with_section_offsets(&mut buf).unwrap();
        // The graph section's CRC field is the 4 bytes before its end mark.
        let graph_end = marks
            .iter()
            .find(|&&(name, _)| name == "graph")
            .map(|&(_, off)| off as usize)
            .unwrap();
        let mut bad = buf.clone();
        bad[graph_end - 4] ^= 0x01;
        let err = KdashIndex::load(bad.as_slice()).unwrap_err();
        assert!(
            matches!(err, PersistError::ChecksumMismatch { section: Section::Graph, .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn flipped_footer_is_detected() {
        let index = sample_index();
        let mut buf = Vec::new();
        index.save(&mut buf).unwrap();
        // Footer magic byte.
        let mut bad = buf.clone();
        let footer = buf.len() - 12;
        bad[footer] ^= 0x40;
        assert!(matches!(
            KdashIndex::load(bad.as_slice()).unwrap_err(),
            PersistError::Corrupt { section: Section::Footer, .. }
        ));
        // Whole-file CRC byte.
        let mut bad = buf.clone();
        bad[buf.len() - 1] ^= 0x40;
        assert!(matches!(
            KdashIndex::load(bad.as_slice()).unwrap_err(),
            PersistError::ChecksumMismatch { section: Section::Footer, .. }
        ));
    }

    #[test]
    fn save_atomic_writes_loadable_file_and_cleans_tmp() {
        let index = sample_index();
        let dir = std::env::temp_dir().join(format!("kdash-persist-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.kdash");
        save_atomic(&index, &path).unwrap();
        assert!(path.exists());
        assert!(!dir.join("sample.kdash.tmp").exists(), "temp file must be renamed away");
        let loaded = KdashIndex::load(io::BufReader::new(File::open(&path).unwrap())).unwrap();
        assert_eq!(loaded.num_nodes(), index.num_nodes());
        // Overwrite in place: still atomic, still loadable.
        save_atomic(&index, &path).unwrap();
        assert!(KdashIndex::load(io::BufReader::new(File::open(&path).unwrap())).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }
}
