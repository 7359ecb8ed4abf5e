//! The immutable checksummed segment file (store format v2).
//!
//! One file holds every shard structure in its exact in-memory layout, so
//! opening a store is **one aligned read plus typed views** — no per-record
//! framing, no per-element decode loop, and no rebuilt direction tables.
//! File layout, all words little-endian:
//!
//! ```text
//! offset 0     header (64 bytes)
//!   0..4         magic "PWSG"
//!   4..6         format version u16 (= 2)
//!   6..8         reserved
//!   8..12        section count u32
//!   12..16       header crc u32 (over bytes 0..data_offset, this field zeroed)
//!   16..24       file length u64
//!   24..32       toc offset u64 (= 64)
//!   32..40       data offset u64 (64-aligned)
//!   40..64       reserved
//! offset 64    table of contents: one 32-byte entry per section
//!   0..4         kind u32                8..16   section offset u64
//!   4..8         shard u32 (MAX=global)  16..24  section length u64
//!                                        24..28  section crc u32
//! data offset  sections, each at a 64-byte-aligned offset:
//!   0..64        preamble: up to 8 u64 shape parameters
//!   64..         raw word array (f32 / u32 / u64, little-endian)
//! ```
//!
//! Every byte of the file is checksum-covered: the header CRC spans the
//! header, TOC and inter-TOC padding; each section CRC spans the section's
//! *padded* extent (pad bytes are written as zeros), and the padded extents
//! must tile the file exactly. Any mismatch is [`StoreError::Corrupt`] with
//! the offset of the rejected region — a damaged segment is rejected, never
//! partially loaded.

use super::{corrupt, StoreError};
use crate::config::PathWeaverConfig;
use crate::index::{PathWeaverIndex, ShardData, ShardIndex};
use pathweaver_gpusim::MemoryLedger;
use pathweaver_graph::{
    BuildReport, DirectionTable, FixedDegreeGraph, GhostShard, InterShardTable,
};
use pathweaver_util::{crc32, put_le_words, AlignedBytes, FixedBitSet};
use pathweaver_vector::{QuantizedSet, VectorSet};
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::Path;

const MAGIC: [u8; 4] = *b"PWSG";
const VERSION: u16 = 2;
/// Fixed header length; the TOC starts here.
pub const HEADER_LEN: usize = 64;
/// Fixed TOC entry length: kind u32, shard u32, offset u64, len u64,
/// crc u32, 4 bytes reserved. Public so external gates (check_store) can
/// walk the TOC and aim corruption at specific section kinds.
pub const TOC_ENTRY_LEN: usize = 32;
const PREAMBLE_LEN: usize = 64;
/// `shard` value of sections that belong to the whole index.
const GLOBAL: u32 = u32::MAX;

// Section kinds. All public so external gates (check_store's corruption
// matrix) can aim damage at every kind the writer emits; lint.toml's
// [format.segment] group pins this file as their one home (W001) and
// requires writer, reader dispatch and corruption matrix to handle each
// (W002).
/// Index-wide JSON metadata.
pub const KIND_META: u32 = 0;
/// Per-shard base vectors.
pub const KIND_VECTORS: u32 = 1;
/// Per-shard fixed-degree adjacency.
pub const KIND_GRAPH: u32 = 2;
/// Per-shard local→global id map.
pub const KIND_GLOBAL_IDS: u32 = 3;
/// Per-shard tombstone bitset.
pub const KIND_TOMBSTONES: u32 = 4;
/// Per-shard inter-shard jump targets.
pub const KIND_INTERSHARD: u32 = 5;
/// Ghost replica: ghost→original id map.
pub const KIND_GHOST_MAP: u32 = 6;
/// Ghost replica: vectors.
pub const KIND_GHOST_VECTORS: u32 = 7;
/// Ghost replica: adjacency.
pub const KIND_GHOST_GRAPH: u32 = 8;
/// Per-shard direction table codes.
pub const KIND_DIR_TABLE: u32 = 9;
/// Section kind of the int8 quantized tier.
pub const KIND_QUANTIZED: u32 = 10;

fn pad64(n: usize) -> usize {
    n.div_ceil(64) * 64
}

/// The JSON-serializable subset of the configuration, stored in the
/// [`KIND_META`] section; device and topology models are reconstructed from
/// presets on load.
#[derive(Debug, Serialize, Deserialize)]
struct Meta {
    version: u32,
    num_devices: usize,
    dim: usize,
    num_vectors: usize,
    graph: pathweaver_graph::CagraBuildParams,
    intershard: pathweaver_graph::InterShardParams,
    build_dir_table: bool,
    // Option so metas written before the quantized tier existed still parse
    // (the vendored serde maps a missing field to None, never a default
    // bool); absent means the tier is off.
    build_quantized: Option<bool>,
    ghost: Option<pathweaver_graph::GhostParams>,
    forward_width: usize,
    ghost_iterations: usize,
    ghost_entries: usize,
    ghost_beam: usize,
    ghost_seeds: usize,
    seed_extra_random: usize,
    seed: u64,
}

impl Meta {
    fn from_index(index: &PathWeaverIndex) -> Self {
        Self {
            version: u32::from(VERSION),
            num_devices: index.num_devices(),
            dim: index.dim(),
            num_vectors: index.num_vectors,
            graph: index.config.graph,
            intershard: index.config.intershard,
            build_dir_table: index.config.build_dir_table,
            build_quantized: Some(index.config.build_quantized),
            ghost: index.config.ghost,
            forward_width: index.config.forward_width,
            ghost_iterations: index.config.ghost_iterations,
            ghost_entries: index.config.ghost_entries,
            ghost_beam: index.config.ghost_beam,
            ghost_seeds: index.config.ghost_seeds,
            seed_extra_random: index.config.seed_extra_random,
            seed: index.config.seed,
        }
    }

    fn to_config(&self) -> PathWeaverConfig {
        let mut config = PathWeaverConfig::full(self.num_devices);
        config.graph = self.graph;
        config.intershard = self.intershard;
        config.build_dir_table = self.build_dir_table;
        config.build_quantized = self.build_quantized.unwrap_or(false);
        config.ghost = self.ghost;
        config.forward_width = self.forward_width;
        config.ghost_iterations = self.ghost_iterations;
        config.ghost_entries = self.ghost_entries;
        config.ghost_beam = self.ghost_beam;
        config.ghost_seeds = self.ghost_seeds;
        config.seed_extra_random = self.seed_extra_random;
        config.seed = self.seed;
        config
    }
}

/// One section staged for writing: preamble parameters + raw words.
struct Section {
    kind: u32,
    shard: u32,
    bytes: Vec<u8>,
}

impl Section {
    fn new(kind: u32, shard: u32, params: &[u64]) -> Self {
        assert!(params.len() <= PREAMBLE_LEN / 8, "preamble overflow");
        let mut bytes = vec![0u8; PREAMBLE_LEN];
        for (i, &p) in params.iter().enumerate() {
            bytes[i * 8..i * 8 + 8].copy_from_slice(&p.to_le_bytes());
        }
        Self { kind, shard, bytes }
    }
}

/// Writes `index` as a segment at `path`.
///
/// The bytes go to a sibling temporary file first and are renamed into
/// place after a sync, so a crash mid-write never leaves a half-written
/// segment under the final name.
///
/// # Errors
///
/// IO failures.
pub fn write_segment(index: &PathWeaverIndex, path: impl AsRef<Path>) -> Result<(), StoreError> {
    let path = path.as_ref();
    let mut sections = Vec::new();

    let meta = Meta::from_index(index);
    let json = serde_json::to_string_pretty(&meta)
        .map_err(|e| std::io::Error::other(format!("segment meta does not serialize: {e}")))?
        .into_bytes();
    let mut sec = Section::new(KIND_META, GLOBAL, &[json.len() as u64]);
    sec.bytes.extend_from_slice(&json);
    sections.push(sec);

    for (s, shard) in index.shards.iter().enumerate() {
        let s = s as u32;
        sections.push(vectors_section(KIND_VECTORS, s, &shard.vectors));
        sections.push(graph_section(KIND_GRAPH, s, &shard.graph));
        let mut sec = Section::new(KIND_GLOBAL_IDS, s, &[shard.global_ids.len() as u64]);
        put_le_words(&mut sec.bytes, &shard.global_ids);
        sections.push(sec);
        let words = shard.deleted.as_words();
        let mut sec = Section::new(
            KIND_TOMBSTONES,
            s,
            &[shard.deleted.capacity() as u64, words.len() as u64],
        );
        put_le_words(&mut sec.bytes, words);
        sections.push(sec);
        if let Some(t) = &shard.intershard {
            let mut sec = Section::new(KIND_INTERSHARD, s, &[t.len() as u64]);
            put_le_words(&mut sec.bytes, t.as_targets());
            sections.push(sec);
        }
        if let Some(t) = &shard.dir_table {
            let mut sec = Section::new(
                KIND_DIR_TABLE,
                s,
                &[t.dim() as u64, shard.graph.degree() as u64, t.as_words().len() as u64],
            );
            put_le_words(&mut sec.bytes, t.as_words());
            sections.push(sec);
        }
        if let Some(q) = &shard.quantized {
            // Layout: scales f32[dim] | offsets f32[dim] | padded code rows
            // (len x stride int8, persisted verbatim so reopen is bitwise).
            let mut sec = Section::new(
                KIND_QUANTIZED,
                s,
                &[q.dim() as u64, q.stride() as u64, q.len() as u64],
            );
            put_le_words(&mut sec.bytes, q.scales());
            put_le_words(&mut sec.bytes, q.offsets());
            sec.bytes.extend(q.as_padded_codes().iter().map(|&c| c as u8));
            sections.push(sec);
        }
        if let Some(g) = &shard.ghost {
            let mut sec = Section::new(KIND_GHOST_MAP, s, &[g.to_original.len() as u64]);
            put_le_words(&mut sec.bytes, &g.to_original);
            sections.push(sec);
            sections.push(vectors_section(KIND_GHOST_VECTORS, s, &g.vectors));
            sections.push(graph_section(KIND_GHOST_GRAPH, s, &g.graph));
        }
    }

    // Lay the sections out at 64-byte-aligned offsets.
    let toc_len = sections.len() * TOC_ENTRY_LEN;
    let data_offset = pad64(HEADER_LEN + toc_len);
    let mut offsets = Vec::with_capacity(sections.len());
    let mut at = data_offset;
    for sec in &sections {
        offsets.push(at);
        at += pad64(sec.bytes.len());
    }
    let file_len = at;

    let mut buf = vec![0u8; file_len];
    buf[..4].copy_from_slice(&MAGIC);
    buf[4..6].copy_from_slice(&VERSION.to_le_bytes());
    buf[8..12].copy_from_slice(&(sections.len() as u32).to_le_bytes());
    buf[16..24].copy_from_slice(&(file_len as u64).to_le_bytes());
    buf[24..32].copy_from_slice(&(HEADER_LEN as u64).to_le_bytes());
    buf[32..40].copy_from_slice(&(data_offset as u64).to_le_bytes());
    for (i, (sec, &off)) in sections.iter().zip(&offsets).enumerate() {
        buf[off..off + sec.bytes.len()].copy_from_slice(&sec.bytes);
        let crc = crc32(&buf[off..off + pad64(sec.bytes.len())]);
        let e = HEADER_LEN + i * TOC_ENTRY_LEN;
        buf[e..e + 4].copy_from_slice(&sec.kind.to_le_bytes());
        buf[e + 4..e + 8].copy_from_slice(&sec.shard.to_le_bytes());
        buf[e + 8..e + 16].copy_from_slice(&(off as u64).to_le_bytes());
        buf[e + 16..e + 24].copy_from_slice(&(sec.bytes.len() as u64).to_le_bytes());
        buf[e + 24..e + 28].copy_from_slice(&crc.to_le_bytes());
    }
    // The header CRC covers everything before the data (its own field
    // zeroed); it is computed last so it also covers the finished TOC.
    let header_crc = crc32(&buf[..data_offset]);
    buf[12..16].copy_from_slice(&header_crc.to_le_bytes());

    let tmp = path.with_extension("pwseg.tmp");
    {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&buf)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

fn vectors_section(kind: u32, shard: u32, vs: &VectorSet) -> Section {
    // Persist the aligned physical layout: `try_from_padded_flat` rebuilds
    // exactly that, so a compact set (stride not a multiple of the 16-lane
    // block) is normalized here once at save time.
    let owned;
    let vs = if vs.stride().is_multiple_of(16) {
        vs
    } else {
        owned = vs.clone().into_aligned();
        &owned
    };
    let mut sec =
        Section::new(kind, shard, &[vs.dim() as u64, vs.stride() as u64, vs.len() as u64]);
    put_le_words(&mut sec.bytes, vs.as_padded_flat());
    sec
}

fn graph_section(kind: u32, shard: u32, graph: &FixedDegreeGraph) -> Section {
    let mut sec = Section::new(kind, shard, &[graph.degree() as u64, graph.num_nodes() as u64]);
    put_le_words(&mut sec.bytes, graph.as_flat());
    sec
}

/// A parsed TOC entry whose extent passed its checksum.
struct RawSection {
    kind: u32,
    shard: u32,
    offset: usize,
    len: usize,
}

/// Little-endian field readers over untrusted bytes: an out-of-bounds range
/// is [`StoreError::Corrupt`] at that offset, never a slice panic, so a
/// torn or lying header cannot take the reader down.
fn le_u32(bytes: &[u8], at: usize) -> Result<u32, StoreError> {
    let b = bytes.get(at..at + 4).ok_or_else(|| corrupt(at as u64, "u32 field out of bounds"))?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn le_u64(bytes: &[u8], at: usize) -> Result<u64, StoreError> {
    let b = bytes.get(at..at + 8).ok_or_else(|| corrupt(at as u64, "u64 field out of bounds"))?;
    Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
}

/// Validates the header, TOC and every section checksum; returns the parsed
/// TOC. Shared by [`read_segment`] and [`verify_segment`].
fn parse_segment(raw: &AlignedBytes) -> Result<Vec<RawSection>, StoreError> {
    let bytes = raw.as_slice();
    if bytes.len() < HEADER_LEN {
        return Err(corrupt(0, format!("segment shorter than its {HEADER_LEN}-byte header")));
    }
    if bytes[..4] != MAGIC {
        return Err(corrupt(0, "bad segment magic"));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        return Err(corrupt(4, format!("unsupported segment version {version}")));
    }
    let count = le_u32(bytes, 8)? as usize;
    let stored_crc = le_u32(bytes, 12)?;
    let file_len = le_u64(bytes, 16)?;
    let toc_offset = le_u64(bytes, 24)? as usize;
    let data_offset = le_u64(bytes, 32)? as usize;
    if file_len != bytes.len() as u64 {
        return Err(corrupt(16, format!("header says {file_len} bytes, file has {}", bytes.len())));
    }
    if toc_offset != HEADER_LEN {
        return Err(corrupt(24, format!("toc offset {toc_offset} != {HEADER_LEN}")));
    }
    let toc_end = HEADER_LEN + count * TOC_ENTRY_LEN;
    if data_offset < toc_end || data_offset > bytes.len() || !data_offset.is_multiple_of(64) {
        return Err(corrupt(32, format!("data offset {data_offset} out of place")));
    }
    // The header CRC spans bytes 0..data_offset with its own field zeroed.
    let mut head = bytes[..data_offset].to_vec();
    head[12..16].fill(0);
    let got = crc32(&head);
    if got != stored_crc {
        return Err(corrupt(12, format!("header crc {got:#010x} != stored {stored_crc:#010x}")));
    }

    let mut sections = Vec::with_capacity(count);
    let mut covered = data_offset;
    for i in 0..count {
        let e = HEADER_LEN + i * TOC_ENTRY_LEN;
        let kind = le_u32(bytes, e)?;
        let shard = le_u32(bytes, e + 4)?;
        let offset = le_u64(bytes, e + 8)? as usize;
        let len = le_u64(bytes, e + 16)? as usize;
        let want_crc = le_u32(bytes, e + 24)?;
        let Some(padded_end) = offset.checked_add(pad64(len)) else {
            return Err(corrupt(e as u64, format!("section {i} extent overflows")));
        };
        if offset < data_offset || padded_end > bytes.len() || !offset.is_multiple_of(64) {
            return Err(corrupt(
                e as u64,
                format!("section {i} extent {offset}..{padded_end} out of place"),
            ));
        }
        if len < PREAMBLE_LEN {
            return Err(corrupt(e as u64, format!("section {i} shorter than its preamble")));
        }
        let got = crc32(&bytes[offset..padded_end]);
        if got != want_crc {
            return Err(corrupt(
                offset as u64,
                format!("section {i} crc {got:#010x} != stored {want_crc:#010x}"),
            ));
        }
        covered += padded_end - offset;
        sections.push(RawSection { kind, shard, offset, len });
    }
    // Checksums must tile the whole file: header CRC up to data_offset, one
    // padded extent per section after it. A gap would be unchecked bytes.
    if covered != bytes.len() {
        return Err(corrupt(
            covered as u64,
            format!("sections cover {covered} of {} bytes", bytes.len()),
        ));
    }
    Ok(sections)
}

fn param(raw: &AlignedBytes, sec: &RawSection, i: usize) -> Result<u64, StoreError> {
    // Preambles are validated to exist (len >= PREAMBLE_LEN) and section
    // offsets are 64-aligned by `parse_segment`, but the readers do not get
    // to assume that: a bad view is Corrupt, not a panic.
    let pre = raw
        .u64s(sec.offset, PREAMBLE_LEN / 8)
        .ok_or_else(|| corrupt(sec.offset as u64, "section preamble out of bounds"))?;
    pre.get(i)
        .copied()
        .ok_or_else(|| corrupt(sec.offset as u64, format!("preamble parameter {i} out of range")))
}

fn data_words(sec: &RawSection, word: usize) -> usize {
    (sec.len - PREAMBLE_LEN) / word
}

/// The checksum audit [`verify_segment`] returns.
#[derive(Debug)]
pub struct SegmentAudit {
    /// Number of sections whose checksums were verified.
    pub sections: usize,
    /// Total file bytes covered by a checksum (the whole file).
    pub bytes: u64,
}

/// Verifies every checksum of the segment at `path` without materializing
/// an index.
///
/// # Errors
///
/// IO failures, or [`StoreError::Corrupt`] naming the first rejected byte
/// range.
pub fn verify_segment(path: impl AsRef<Path>) -> Result<SegmentAudit, StoreError> {
    let raw = AlignedBytes::read_to_end(std::fs::File::open(path)?)?;
    let sections = parse_segment(&raw)?;
    Ok(SegmentAudit { sections: sections.len(), bytes: raw.len() as u64 })
}

/// Per-shard sections collected while walking the TOC.
#[derive(Default)]
struct ShardSections<'a> {
    vectors: Option<&'a RawSection>,
    graph: Option<&'a RawSection>,
    global_ids: Option<&'a RawSection>,
    tombstones: Option<&'a RawSection>,
    intershard: Option<&'a RawSection>,
    dir_table: Option<&'a RawSection>,
    quantized: Option<&'a RawSection>,
    ghost_map: Option<&'a RawSection>,
    ghost_vectors: Option<&'a RawSection>,
    ghost_graph: Option<&'a RawSection>,
}

fn claim<'a>(slot: &mut Option<&'a RawSection>, sec: &'a RawSection) -> Result<(), StoreError> {
    if slot.replace(sec).is_some() {
        return Err(corrupt(
            sec.offset as u64,
            format!("duplicate section kind {} for shard {}", sec.kind, sec.shard),
        ));
    }
    Ok(())
}

/// Opens the segment at `path`: one aligned read, checksum validation, and
/// zero-per-record materialization of every shard structure (direction
/// tables included — nothing is rebuilt). Open latency is recorded in the
/// `store.segment_open_wall_ns` histogram when observability is enabled.
///
/// # Errors
///
/// IO failures, or [`StoreError::Corrupt`] naming the first rejected byte
/// range. A corrupt segment never yields an index.
pub fn read_segment(path: impl AsRef<Path>) -> Result<PathWeaverIndex, StoreError> {
    let sw = pathweaver_obs::Stopwatch::start();
    let raw = AlignedBytes::read_to_end(std::fs::File::open(path)?)?;
    let sections = parse_segment(&raw)?;

    let meta_sec = sections
        .iter()
        .find(|s| s.kind == KIND_META)
        .ok_or_else(|| corrupt(0, "segment has no meta section"))?;
    let json_len = param(&raw, meta_sec, 0)? as usize;
    if json_len != meta_sec.len - PREAMBLE_LEN {
        return Err(corrupt(meta_sec.offset as u64, "meta length disagrees with its section"));
    }
    let json = &raw.as_slice()[meta_sec.offset + PREAMBLE_LEN..meta_sec.offset + meta_sec.len];
    let meta: Meta = serde_json::from_str(
        std::str::from_utf8(json).map_err(|e| corrupt(meta_sec.offset as u64, e))?,
    )
    .map_err(|e| corrupt(meta_sec.offset as u64, e))?;
    if meta.version != u32::from(VERSION) {
        return Err(corrupt(
            meta_sec.offset as u64,
            format!("segment meta declares version {}", meta.version),
        ));
    }
    if meta.num_devices == 0 {
        return Err(corrupt(meta_sec.offset as u64, "segment meta declares zero shards"));
    }

    let mut per_shard: Vec<ShardSections<'_>> = Vec::new();
    per_shard.resize_with(meta.num_devices, ShardSections::default);
    for sec in &sections {
        if sec.kind == KIND_META {
            continue;
        }
        let at = sec.offset as u64;
        let slots = per_shard
            .get_mut(sec.shard as usize)
            .ok_or_else(|| corrupt(at, format!("section for unknown shard {}", sec.shard)))?;
        match sec.kind {
            KIND_VECTORS => claim(&mut slots.vectors, sec)?,
            KIND_GRAPH => claim(&mut slots.graph, sec)?,
            KIND_GLOBAL_IDS => claim(&mut slots.global_ids, sec)?,
            KIND_TOMBSTONES => claim(&mut slots.tombstones, sec)?,
            KIND_INTERSHARD => claim(&mut slots.intershard, sec)?,
            KIND_DIR_TABLE => claim(&mut slots.dir_table, sec)?,
            KIND_QUANTIZED => claim(&mut slots.quantized, sec)?,
            KIND_GHOST_MAP => claim(&mut slots.ghost_map, sec)?,
            KIND_GHOST_VECTORS => claim(&mut slots.ghost_vectors, sec)?,
            KIND_GHOST_GRAPH => claim(&mut slots.ghost_graph, sec)?,
            k => return Err(corrupt(at, format!("unknown section kind {k}"))),
        }
    }

    let config = meta.to_config();
    let mut shards = Vec::with_capacity(meta.num_devices);
    for (s, slots) in per_shard.iter().enumerate() {
        let missing = |what: &str| corrupt(0, format!("shard {s} has no {what} section"));
        let vec_sec = slots.vectors.ok_or_else(|| missing("vectors"))?;
        let vectors = read_vectors(&raw, vec_sec)?;
        if vectors.dim() != meta.dim {
            return Err(corrupt(
                vec_sec.offset as u64,
                format!("shard {s} dim {} != meta dim {}", vectors.dim(), meta.dim),
            ));
        }
        let graph = read_graph(&raw, slots.graph.ok_or_else(|| missing("graph"))?)?;
        let sec = slots.global_ids.ok_or_else(|| missing("global ids"))?;
        let global_ids = read_u32s(&raw, sec, param(&raw, sec, 0)? as usize)?.to_vec();
        let sec = slots.tombstones.ok_or_else(|| missing("tombstones"))?;
        let capacity = param(&raw, sec, 0)? as usize;
        let words = read_u64s(&raw, sec, param(&raw, sec, 1)? as usize)?.to_vec();
        let deleted = FixedBitSet::try_from_words(capacity, words)
            .map_err(|e| corrupt(sec.offset as u64, e))?;
        if graph.num_nodes() != vectors.len()
            || global_ids.len() != vectors.len()
            || deleted.capacity() != vectors.len()
        {
            return Err(corrupt(
                sec.offset as u64,
                format!("shard {s} structures disagree on node count"),
            ));
        }
        let intershard = match slots.intershard {
            Some(sec) => {
                let targets = read_u32s(&raw, sec, param(&raw, sec, 0)? as usize)?.to_vec();
                if targets.len() != vectors.len() {
                    return Err(corrupt(
                        sec.offset as u64,
                        format!(
                            "shard {s} inter-shard table covers {} of {} nodes",
                            targets.len(),
                            vectors.len()
                        ),
                    ));
                }
                Some(InterShardTable::from_targets(targets))
            }
            None => None,
        };
        if meta.num_devices > 1 && intershard.is_none() {
            return Err(missing("inter-shard table"));
        }
        let dir_table = match slots.dir_table {
            Some(sec) => {
                let dim = param(&raw, sec, 0)? as usize;
                let degree = param(&raw, sec, 1)? as usize;
                let codes = read_u32s(&raw, sec, param(&raw, sec, 2)? as usize)?.to_vec();
                let t = DirectionTable::try_from_words(dim, degree, codes)
                    .map_err(|e| corrupt(sec.offset as u64, e))?;
                if dim != meta.dim || degree != graph.degree() {
                    return Err(corrupt(
                        sec.offset as u64,
                        format!("shard {s} direction table shape disagrees with its graph"),
                    ));
                }
                Some(t)
            }
            // Segments written before the direction table was persisted:
            // rebuild it from the vectors and graph so the index still opens.
            None => meta.build_dir_table.then(|| DirectionTable::build(&vectors, &graph)),
        };
        let quantized = match slots.quantized {
            Some(sec) => Some(read_quantized(&raw, sec, s, &meta, &vectors)?),
            // Metas that want the tier but segments written before the
            // quantized section existed: rebuild from the vectors (the
            // encoding is deterministic), mirroring the dir-table fallback.
            None => meta.build_quantized.unwrap_or(false).then(|| QuantizedSet::quantize(&vectors)),
        };
        let ghost = match (slots.ghost_map, slots.ghost_vectors, slots.ghost_graph) {
            (Some(map), Some(vsec), Some(gsec)) => {
                let to_original = read_u32s(&raw, map, param(&raw, map, 0)? as usize)?.to_vec();
                let gvec = read_vectors(&raw, vsec)?;
                let ggraph = read_graph(&raw, gsec)?;
                if to_original.len() != gvec.len() || ggraph.num_nodes() != gvec.len() {
                    return Err(corrupt(
                        map.offset as u64,
                        format!("shard {s} ghost structures disagree on node count"),
                    ));
                }
                Some(GhostShard { to_original, vectors: gvec, graph: ggraph })
            }
            (None, None, None) => None,
            _ => return Err(corrupt(0, format!("shard {s} has a partial ghost shard"))),
        };
        let mut shard =
            ShardIndex::new(ShardData { global_ids, vectors, graph, dir_table, quantized, ghost });
        shard.intershard = intershard;
        shard.deleted = deleted;
        shards.push(shard);
    }

    let index = finish_load(&meta, config, shards)?;
    if pathweaver_obs::enabled() {
        pathweaver_obs::registry()
            .histogram("store.segment_open_wall_ns")
            .record(sw.elapsed_nanos());
    }
    Ok(index)
}

/// Ring-target validation and memory-ledger reconstruction for the shards [`read_segment`] materialized. Every
/// failure here passed the checksums, so it is a structural lie in the
/// segment: [`StoreError::Corrupt`].
fn finish_load(
    meta: &Meta,
    config: PathWeaverConfig,
    shards: Vec<ShardIndex>,
) -> Result<PathWeaverIndex, StoreError> {
    // Targets must land inside the ring successor's shard.
    for s in 0..shards.len() {
        if let Some(t) = &shards[s].intershard {
            let next_len = shards[(s + 1) % shards.len()].vectors.len() as u32;
            for u in 0..t.len() as u32 {
                if t.target(u) >= next_len {
                    return Err(corrupt(
                        0,
                        format!(
                            "shard {s} inter-shard target {} out of range for next shard ({next_len} nodes)",
                            t.target(u)
                        ),
                    ));
                }
            }
        }
    }

    let mut ledgers = Vec::with_capacity(meta.num_devices);
    for shard in &shards {
        let mut ledger = MemoryLedger::new(config.device.mem_capacity);
        for (label, bytes) in shard.resident_bytes() {
            ledger.allocate(label, bytes).map_err(|e| corrupt(0, e))?;
        }
        ledgers.push(ledger);
    }
    Ok(PathWeaverIndex {
        config,
        shards: shards.into_iter().map(std::sync::Arc::new).collect(),
        build_report: BuildReport::new(),
        ledgers,
        num_vectors: meta.num_vectors,
    })
}

fn read_vectors(raw: &AlignedBytes, sec: &RawSection) -> Result<VectorSet, StoreError> {
    let at = sec.offset as u64;
    let dim = param(raw, sec, 0)? as usize;
    let stride = param(raw, sec, 1)? as usize;
    let len = param(raw, sec, 2)? as usize;
    let count = data_words(sec, 4);
    if stride.checked_mul(len) != Some(count) {
        return Err(corrupt(
            at,
            format!("vector section holds {count} floats, shape says {stride}x{len}"),
        ));
    }
    let floats = raw
        .f32s(sec.offset + PREAMBLE_LEN, count)
        .ok_or_else(|| corrupt(at, "vector data out of bounds"))?;
    VectorSet::try_from_padded_flat(dim, len, &floats).map_err(|e| corrupt(at, e))
}

/// Materializes a quantized section, validating every shape claim against
/// the section's byte extent and the shard it belongs to before any buffer
/// is built — a lying preamble is [`StoreError::Corrupt`], never a panic.
fn read_quantized(
    raw: &AlignedBytes,
    sec: &RawSection,
    shard: usize,
    meta: &Meta,
    vectors: &VectorSet,
) -> Result<QuantizedSet, StoreError> {
    let at = sec.offset as u64;
    let dim = param(raw, sec, 0)?;
    let stride = param(raw, sec, 1)?;
    let len = param(raw, sec, 2)?;
    // scales f32[dim] + offsets f32[dim] + len x stride codes, all claimed
    // by an untrusted preamble: checked arithmetic so a hostile shape
    // cannot overflow its way past the extent comparison.
    let expect = dim
        .checked_mul(8)
        .and_then(|p| stride.checked_mul(len).and_then(|c| p.checked_add(c)))
        .ok_or_else(|| corrupt(at, format!("quantized shape {dim}x{stride}x{len} overflows")))?;
    if expect != (sec.len - PREAMBLE_LEN) as u64 {
        return Err(corrupt(
            at,
            format!(
                "quantized section holds {} bytes, shape says {expect}",
                sec.len - PREAMBLE_LEN
            ),
        ));
    }
    let (dim, len) = (dim as usize, len as usize);
    let scales = raw
        .f32s(sec.offset + PREAMBLE_LEN, dim)
        .ok_or_else(|| corrupt(at, "quantized scales out of bounds"))?
        .to_vec();
    let offsets = raw
        .f32s(sec.offset + PREAMBLE_LEN + 4 * dim, dim)
        .ok_or_else(|| corrupt(at, "quantized offsets out of bounds"))?
        .to_vec();
    let code_bytes = &raw.as_slice()[sec.offset + PREAMBLE_LEN + 8 * dim..sec.offset + sec.len];
    let codes: Vec<i8> = code_bytes.iter().map(|&b| b as i8).collect();
    // `try_from_parts` re-derives the stride from `dim`, so a stride lie in
    // the preamble surfaces as a code-length mismatch here.
    let q = QuantizedSet::try_from_parts(dim, len, scales, offsets, &codes)
        .map_err(|e| corrupt(at, e))?;
    if dim != meta.dim || len != vectors.len() {
        return Err(corrupt(
            at,
            format!("shard {shard} quantized tier shape disagrees with its vectors"),
        ));
    }
    Ok(q)
}

fn read_graph(raw: &AlignedBytes, sec: &RawSection) -> Result<FixedDegreeGraph, StoreError> {
    let at = sec.offset as u64;
    let degree = param(raw, sec, 0)? as usize;
    let nodes = param(raw, sec, 1)? as usize;
    let count = data_words(sec, 4);
    if degree.checked_mul(nodes) != Some(count) {
        return Err(corrupt(
            at,
            format!("graph section holds {count} words, shape says {nodes}x{degree}"),
        ));
    }
    let adj = read_u32s(raw, sec, count)?;
    FixedDegreeGraph::try_from_flat(degree, adj.to_vec()).map_err(|e| corrupt(at, e))
}

fn read_u32s<'a>(
    raw: &'a AlignedBytes,
    sec: &RawSection,
    count: usize,
) -> Result<pathweaver_util::aligned::TypedView<'a, u32>, StoreError> {
    if count != data_words(sec, 4) {
        return Err(corrupt(
            sec.offset as u64,
            format!("section holds {} words, preamble says {count}", data_words(sec, 4)),
        ));
    }
    raw.u32s(sec.offset + PREAMBLE_LEN, count)
        .ok_or_else(|| corrupt(sec.offset as u64, "section data out of bounds"))
}

fn read_u64s<'a>(
    raw: &'a AlignedBytes,
    sec: &RawSection,
    count: usize,
) -> Result<pathweaver_util::aligned::TypedView<'a, u64>, StoreError> {
    if count != data_words(sec, 8) {
        return Err(corrupt(
            sec.offset as u64,
            format!("section holds {} words, preamble says {count}", data_words(sec, 8)),
        ));
    }
    raw.u64s(sec.offset + PREAMBLE_LEN, count)
        .ok_or_else(|| corrupt(sec.offset as u64, "section data out of bounds"))
}

#[cfg(test)]
mod tests {
    use super::super::testutil::TempDir;
    use super::*;
    use crate::config::PathWeaverConfig;
    use pathweaver_datasets::{DatasetProfile, Scale};

    fn built(seed: u64) -> PathWeaverIndex {
        let w = DatasetProfile::deep10m_like().workload(Scale::Test, 4, 5, seed);
        PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2)).unwrap()
    }

    #[test]
    fn every_file_byte_is_checksum_covered() {
        let idx = built(81);
        let dir = TempDir::new("seg-cover");
        let path = dir.join("segment.pwseg");
        write_segment(&idx, &path).unwrap();
        let raw = std::fs::read(&path).unwrap();
        let audit = verify_segment(&path).unwrap();
        assert_eq!(audit.bytes, raw.len() as u64);
        assert!(audit.sections >= 9, "meta + at least four sections per shard");
    }

    #[test]
    fn any_single_bitflip_is_rejected() {
        let idx = built(82);
        let dir = TempDir::new("seg-flip");
        let path = dir.join("segment.pwseg");
        write_segment(&idx, &path).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        // Exhaustive over a stride; every flip must surface as Corrupt.
        for i in (0..pristine.len()).step_by(97) {
            let mut damaged = pristine.clone();
            damaged[i] ^= 0x04;
            std::fs::write(&path, &damaged).unwrap();
            match read_segment(&path) {
                Err(StoreError::Corrupt { .. }) => {}
                other => panic!("flip at byte {i} not rejected: {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let idx = built(83);
        let dir = TempDir::new("seg-trunc");
        let path = dir.join("segment.pwseg");
        write_segment(&idx, &path).unwrap();
        let pristine = std::fs::read(&path).unwrap();
        for keep in [0, 3, 63, 64, pristine.len() / 2, pristine.len() - 1] {
            std::fs::write(&path, &pristine[..keep]).unwrap();
            assert!(
                matches!(read_segment(&path), Err(StoreError::Corrupt { .. })),
                "truncation to {keep} bytes not rejected"
            );
        }
    }

    #[test]
    fn no_tmp_file_left_behind() {
        let idx = built(84);
        let dir = TempDir::new("seg-tmp");
        write_segment(&idx, dir.join("segment.pwseg")).unwrap();
        let names: Vec<String> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, vec!["segment.pwseg".to_string()]);
    }

    #[test]
    fn wrong_version_is_corrupt() {
        let idx = built(85);
        let dir = TempDir::new("seg-version");
        let path = dir.join("segment.pwseg");
        write_segment(&idx, &path).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        raw[4] = 9;
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(read_segment(&path), Err(StoreError::Corrupt { offset: 4, .. })));
    }
}
