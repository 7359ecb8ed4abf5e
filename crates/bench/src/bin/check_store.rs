//! Crash-recovery gate: a seeded, deterministic corruption matrix over the
//! durable index store, emitting machine-readable `store_report.json`.
//!
//! A durable store (segment + WAL with pending inserts and a delete) is
//! built once through the one writer, `ConcurrentIndex::durable`; every case
//! then damages a copy of it and reopens it the way a serving process does
//! (`DurableIndex::open`, handed to `ConcurrentIndex::durable`, read through
//! `pin()`):
//!
//! - **WAL truncation** at every record boundary plus fuzzed interior
//!   offsets. Reopen must succeed, replay exactly the intact record prefix,
//!   and search identically to an index that never saw the torn records.
//! - **WAL bit-flips** at fuzzed offsets. Body flips must truncate cleanly
//!   from the damaged record on (same prefix contract); header flips may
//!   instead be rejected with [`StoreError::Corrupt`].
//! - **Segment bit-flips** at fuzzed offsets. Every byte of a segment is
//!   checksum-covered, so any flip must be rejected with `Corrupt` — there
//!   is no acceptable "opened anyway" outcome.
//! - **Segment truncation** at fuzzed cut points: `Corrupt` likewise.
//!
//! No case may panic, and no case may open into a state whose search
//! results match none of the valid WAL-prefix states (a silent wrong
//! answer). Any violation is listed in the report and fails the gate.
//!
//! Environment: `PATHWEAVER_STORE_SEED` (default 4242) seeds the fuzzed
//! offsets; `PATHWEAVER_STORE_OUT` overrides the report path (default
//! `target/store_report.json`).

use std::path::{Path, PathBuf};

use pathweaver_bench::gate::{seed_from_env, Gate};
use pathweaver_core::store::segment::{
    HEADER_LEN, KIND_DIR_TABLE, KIND_GHOST_GRAPH, KIND_GHOST_MAP, KIND_GHOST_VECTORS,
    KIND_GLOBAL_IDS, KIND_GRAPH, KIND_INTERSHARD, KIND_META, KIND_QUANTIZED, KIND_TOMBSTONES,
    KIND_VECTORS, TOC_ENTRY_LEN,
};
use pathweaver_core::store::{StoreError, SEGMENT_FILE, WAL_FILE};
use pathweaver_core::{
    ConcurrentIndex, DeleteOutcome, DurableIndex, PathWeaverConfig, PathWeaverIndex,
};
use pathweaver_datasets::{DatasetProfile, Scale};
use pathweaver_search::SearchParams;
use rand::Rng;
use serde_json::json;

/// Search results for the fixed query set — the identity we compare states
/// by. Two stores are "the same index" iff these match.
type Results = Vec<Vec<u32>>;

struct Matrix {
    work: PathBuf,
    segment: Vec<u8>,
    wal: Vec<u8>,
    /// WAL length after 0, 1, .., n applied records (`[0]` is the header).
    record_ends: Vec<usize>,
    /// Search results after 0, 1, .., n applied records.
    prefix_states: Vec<Results>,
    queries: pathweaver_vector::VectorSet,
    checks: Gate,
}

impl Matrix {
    /// Writes one damaged store into the work dir and evaluates the case.
    fn run_case(
        &mut self,
        label: String,
        segment: &[u8],
        wal: &[u8],
        ok: impl Fn(&Outcome) -> bool,
    ) {
        std::fs::write(self.work.join(SEGMENT_FILE), segment).expect("stage segment");
        std::fs::write(self.work.join(WAL_FILE), wal).expect("stage wal");
        let Self { checks, work, queries, prefix_states, .. } = self;
        checks.case(&label, || {
            // What a reopen attempt did, reduced to the contract's
            // vocabulary; a panic is caught and reported by the gate.
            let opened = DurableIndex::open(work).map(|store| {
                let ix = ConcurrentIndex::durable(store);
                ix.pin().index().search_pipelined(queries, &SearchParams::default()).results
            });
            let outcome = match opened {
                Err(StoreError::Corrupt { offset, detail }) => Outcome::Corrupt { offset, detail },
                Err(e) => Outcome::OtherError(format!("{e:?}")),
                Ok(results) => match prefix_states.iter().position(|s| *s == results) {
                    Some(k) => Outcome::OpenedAtPrefix(k),
                    None => Outcome::SilentWrongAnswer,
                },
            };
            if ok(&outcome) {
                Ok(())
            } else {
                Err(outcome.describe())
            }
        });
    }

    /// Index of the last record boundary at or before `offset` — the number
    /// of WAL records that must survive damage at that byte.
    fn intact_prefix(&self, offset: usize) -> usize {
        self.record_ends.iter().rposition(|&e| e <= offset).unwrap_or(0)
    }
}

enum Outcome {
    /// Store opened; searches matched WAL-prefix state `k`.
    OpenedAtPrefix(usize),
    Corrupt {
        offset: u64,
        detail: String,
    },
    OtherError(String),
    SilentWrongAnswer,
}

impl Outcome {
    fn describe(&self) -> String {
        match self {
            Self::OpenedAtPrefix(k) => format!("opened at WAL prefix {k}"),
            Self::Corrupt { offset, detail } => format!("rejected: corrupt at {offset}: {detail}"),
            Self::OtherError(e) => format!("rejected: {e}"),
            Self::SilentWrongAnswer => "opened with results matching no valid state".into(),
        }
    }
}

fn flip(bytes: &[u8], offset: usize, bit: u8) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[offset] ^= 1 << bit;
    out
}

fn build_matrix(root: &Path, seed: u64) -> Matrix {
    let w = DatasetProfile::deep10m_like().workload(Scale::Test, 4, 5, seed);
    let idx = PathWeaverIndex::build(&w.base, &PathWeaverConfig::test_scale(2))
        .expect("matrix index builds");
    let pristine = root.join("pristine");
    std::fs::create_dir_all(&pristine).expect("create pristine dir");
    let durable = ConcurrentIndex::durable(
        DurableIndex::create(idx, &pristine).expect("create durable store"),
    );

    let params = SearchParams::default();
    let snap =
        |ix: &ConcurrentIndex| ix.pin().index().search_pipelined(&w.queries, &params).results;
    let wal_len = || std::fs::metadata(pristine.join(WAL_FILE)).expect("wal meta").len() as usize;

    let mut record_ends = vec![wal_len()];
    let mut prefix_states = vec![snap(&durable)];
    // Each mutation must visibly change some query's results, or the
    // prefix states would be indistinguishable and the matrix could not
    // tell which state a recovered store landed in: insert the query
    // vectors themselves (each becomes its own query's exact top hit),
    // then delete the first of them (query 0's results revert).
    let base_len = w.base.len() as u32;
    for r in 0..4 {
        durable.insert(w.queries.row(r)).expect("wal insert");
        record_ends.push(wal_len());
        prefix_states.push(snap(&durable));
    }
    assert_eq!(durable.delete_outcome(base_len).expect("wal delete"), DeleteOutcome::Applied);
    record_ends.push(wal_len());
    prefix_states.push(snap(&durable));
    drop(durable);
    for (a, sa) in prefix_states.iter().enumerate() {
        for (b, sb) in prefix_states.iter().enumerate().skip(a + 1) {
            assert_ne!(sa, sb, "prefix states {a} and {b} are indistinguishable");
        }
    }

    let segment = std::fs::read(pristine.join(SEGMENT_FILE)).expect("read segment");
    let wal = std::fs::read(pristine.join(WAL_FILE)).expect("read wal");
    let work = root.join("case");
    std::fs::create_dir_all(&work).expect("create case dir");
    Matrix {
        work,
        segment,
        wal,
        record_ends,
        prefix_states,
        queries: w.queries,
        checks: Gate::new("check_store", seed),
    }
}

fn main() {
    let seed = seed_from_env("PATHWEAVER_STORE_SEED", 4242);
    let root = std::env::temp_dir().join(format!("pw-check-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut m = build_matrix(&root, seed);
    let mut rng = pathweaver_util::small_rng(seed);
    println!(
        "check_store: seed {seed}, segment {} bytes, wal {} bytes ({} records)",
        m.segment.len(),
        m.wal.len(),
        m.record_ends.len() - 1
    );

    // WAL truncation: every record boundary, plus fuzzed interior cuts.
    // The contract is exact: replay precisely the intact prefix.
    let mut cuts: Vec<usize> = m.record_ends.clone();
    cuts.extend((0..48).map(|_| rng.gen_range(0..m.wal.len())));
    for cut in cuts {
        let expect = m.intact_prefix(cut);
        let (segment, wal) = (m.segment.clone(), m.wal[..cut].to_vec());
        m.run_case(
            format!("wal-truncate@{cut}"),
            &segment,
            &wal,
            |o| matches!(o, Outcome::OpenedAtPrefix(k) if *k == expect),
        );
    }
    // Cutting into the 16-byte WAL header may instead be rejected outright.
    for cut in 0..m.record_ends[0] {
        let (segment, wal) = (m.segment.clone(), m.wal[..cut].to_vec());
        m.run_case(format!("wal-header-truncate@{cut}"), &segment, &wal, |o| {
            matches!(o, Outcome::Corrupt { .. } | Outcome::OpenedAtPrefix(0))
        });
    }

    // WAL bit-flips: body damage truncates from the damaged record on;
    // header damage is rejected (or ignored, if the flip lands in a byte the
    // format does not interpret — still a valid prefix-0..n open, never a
    // wrong answer).
    let header = m.record_ends[0];
    for _ in 0..64 {
        let offset = rng.gen_range(0..m.wal.len());
        let bit = rng.gen_range(0..8u8);
        let expect = m.intact_prefix(offset);
        let (segment, wal) = (m.segment.clone(), flip(&m.wal, offset, bit));
        if offset < header {
            m.run_case(format!("wal-header-flip@{offset}.{bit}"), &segment, &wal, |o| {
                matches!(o, Outcome::Corrupt { .. } | Outcome::OpenedAtPrefix(_))
            });
        } else {
            m.run_case(
                format!("wal-flip@{offset}.{bit}"),
                &segment,
                &wal,
                |o| matches!(o, Outcome::OpenedAtPrefix(k) if *k == expect),
            );
        }
    }

    // Segment bit-flips: every byte is under a checksum, so every flip must
    // surface as Corrupt — opening at all would be a checksum hole.
    for _ in 0..64 {
        let offset = rng.gen_range(0..m.segment.len());
        let bit = rng.gen_range(0..8u8);
        let (segment, wal) = (flip(&m.segment, offset, bit), m.wal.clone());
        m.run_case(format!("segment-flip@{offset}.{bit}"), &segment, &wal, |o| {
            matches!(o, Outcome::Corrupt { .. })
        });
    }

    // Segment truncation: likewise Corrupt (the header records the exact
    // file length).
    for _ in 0..16 {
        let cut = rng.gen_range(0..m.segment.len());
        let (segment, wal) = (m.segment[..cut].to_vec(), m.wal.clone());
        m.run_case(format!("segment-truncate@{cut}"), &segment, &wal, |o| {
            matches!(o, Outcome::Corrupt { .. })
        });
    }

    // Section-targeted damage: walk the TOC and aim flips at each section
    // kind's extents. The kind list mirrors the writer's full vocabulary —
    // any TOC entry with a kind outside it means the matrix has drifted from
    // the format and the gate aborts.
    const SECTION_KINDS: &[(u32, &str)] = &[
        (KIND_META, "meta"),
        (KIND_VECTORS, "vectors"),
        (KIND_GRAPH, "graph"),
        (KIND_GLOBAL_IDS, "global-ids"),
        (KIND_TOMBSTONES, "tombstones"),
        (KIND_INTERSHARD, "intershard"),
        (KIND_GHOST_MAP, "ghost-map"),
        (KIND_GHOST_VECTORS, "ghost-vectors"),
        (KIND_GHOST_GRAPH, "ghost-graph"),
        (KIND_DIR_TABLE, "dir-table"),
        (KIND_QUANTIZED, "quantized"),
    ];
    let toc_count =
        u32::from_le_bytes(m.segment[8..12].try_into().expect("section count")) as usize;
    let toc: Vec<(u32, usize, usize)> = (0..toc_count)
        .map(|i| {
            let e = HEADER_LEN + i * TOC_ENTRY_LEN;
            let kind = u32::from_le_bytes(m.segment[e..e + 4].try_into().expect("kind"));
            let off =
                u64::from_le_bytes(m.segment[e + 8..e + 16].try_into().expect("offset")) as usize;
            let len =
                u64::from_le_bytes(m.segment[e + 16..e + 24].try_into().expect("len")) as usize;
            (kind, off, len)
        })
        .collect();
    for (i, &(kind, _, _)) in toc.iter().enumerate() {
        assert!(
            SECTION_KINDS.iter().any(|&(k, _)| k == kind),
            "TOC entry {i} has kind {kind}, unknown to the corruption matrix"
        );
    }
    let extents_of = |want: u32| -> Vec<(usize, usize)> {
        toc.iter()
            .filter(|&&(kind, _, len)| kind == want && len > 0)
            .map(|&(_, o, l)| (o, l))
            .collect()
    };
    for &(kind, name) in SECTION_KINDS {
        for (off, len) in extents_of(kind) {
            for _ in 0..4 {
                let offset = off + rng.gen_range(0..len);
                let bit = rng.gen_range(0..8u8);
                let (segment, wal) = (flip(&m.segment, offset, bit), m.wal.clone());
                m.run_case(format!("section-{name}-flip@{offset}.{bit}"), &segment, &wal, |o| {
                    matches!(o, Outcome::Corrupt { .. })
                });
            }
        }
    }

    // Quantized sections, specifically: the int8 tier is the newest section
    // kind, so aim a deeper pass straight at its extents — flips in the
    // grid/codes and cuts through the section must be Corrupt, never a
    // panic or a silently degraded (wrong-distance) open.
    let quantized_extents = extents_of(KIND_QUANTIZED);
    assert!(
        !quantized_extents.is_empty(),
        "matrix store was built with build_quantized; its segment must carry quantized sections"
    );
    for &(off, len) in &quantized_extents {
        for _ in 0..24 {
            let offset = off + rng.gen_range(0..len);
            let bit = rng.gen_range(0..8u8);
            let (segment, wal) = (flip(&m.segment, offset, bit), m.wal.clone());
            m.run_case(format!("quantized-flip@{offset}.{bit}"), &segment, &wal, |o| {
                matches!(o, Outcome::Corrupt { .. })
            });
        }
        for _ in 0..6 {
            let cut = off + rng.gen_range(0..len);
            let (segment, wal) = (m.segment[..cut].to_vec(), m.wal.clone());
            m.run_case(format!("quantized-truncate@{cut}"), &segment, &wal, |o| {
                matches!(o, Outcome::Corrupt { .. })
            });
        }
    }

    let _ = std::fs::remove_dir_all(&root);
    let fields = [
        ("wal_records", json!(m.record_ends.len() - 1)),
        ("segment_bytes", json!(m.segment.len())),
        ("wal_bytes", json!(m.wal.len())),
    ];
    m.checks.finish(
        &fields,
        &[],
        "PATHWEAVER_STORE_OUT",
        "target/store_report.json",
        "corruption matrix found contract violations",
    );
}
