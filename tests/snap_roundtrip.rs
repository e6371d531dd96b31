//! Snapshot roundtrip contract: `build → serialize → load` must reproduce
//! the train-at-startup engine byte for byte, and building the same engine
//! twice must produce byte-identical snapshot files.
//!
//! The profiles × thread-count matrix here is the serving determinism
//! contract extended to persistence: the snapshot is a function of
//! `(profile, seed, configs)` only — never of the thread count that trained
//! it, the thread count that loads it, or the wall clock.

use ultra_serve::{EngineConfig, ExpansionEngine, Method, SnapshotRuntime};
use ultrawiki::lm::NgramLm;
use ultrawiki::prelude::*;
use ultrawiki::snap::{file_fingerprint, fnv1a, section_spans};

/// FNV-1a of the `NGLM` payload in the tiny profile's GenExpan snapshot
/// (default seed and GenExpan config; the LM does not depend on the
/// encoder config). Any change to LM training or to its codec that moves
/// a single byte of the persisted model fails against this pin.
const TINY_NGLM_FNV: u64 = 0x000c_f5ee_afd0_c922;

/// A cheap encoder so the matrix stays fast; cheapness is irrelevant to the
/// contract (every byte surface is exercised regardless of model size).
fn cheap_encoder() -> EncoderConfig {
    EncoderConfig {
        epochs: 1,
        dim: 16,
        neg_samples: 8,
        max_sentences_per_entity: 4,
        ..EncoderConfig::default()
    }
}

fn engine_config(profile: &str, threads: usize, genexpan: bool) -> EngineConfig {
    EngineConfig {
        profile: profile.into(),
        encoder: cheap_encoder(),
        genexpan: genexpan.then(GenExpanConfig::default),
        threads,
        cache_capacity: 64,
        cache_shards: 2,
        ..EngineConfig::default()
    }
}

/// Asserts the loaded engine answers every query byte-identically to the
/// trained one (JSON bytes, i.e. exactly what HTTP clients would diff).
fn assert_identical_answers(trained: &ExpansionEngine, loaded: &ExpansionEngine) {
    let mut methods = vec![Method::RetExpan];
    if trained.methods().contains(&"genexpan") {
        methods.push(Method::GenExpan);
    }
    for (_ultra, query) in trained.world().queries() {
        for &method in &methods {
            let a = trained
                .expand_uncached(method, query, 0)
                .expect("trained expands");
            let b = loaded
                .expand_uncached(method, query, 0)
                .expect("loaded expands");
            assert_eq!(
                serde_json::to_string(&a).expect("json"),
                serde_json::to_string(&b).expect("json"),
                "snapshot-served answer differs from train-at-startup"
            );
        }
    }
}

/// The `NGLM` payload of a snapshot with GenExpan enabled.
fn nglm_payload(bytes: &[u8]) -> &[u8] {
    let spans = section_spans(bytes).expect("structurally valid snapshot");
    let nglm = spans
        .iter()
        .find(|s| &s.tag == b"NGLM")
        .expect("GenExpan snapshots carry an NGLM section");
    &bytes[nglm.payload_start..nglm.payload_end]
}

/// The loader reports the whole-file fingerprint it derived from the
/// verified trailer; it must equal a full pass over the file.
fn assert_derived_fingerprint(loaded: &ExpansionEngine, bytes: &[u8]) {
    assert_eq!(
        loaded.index_info().snapshot_fingerprint,
        Some(format!("{:016x}", file_fingerprint(bytes))),
        "derived fingerprint differs from the whole-file pass"
    );
}

#[test]
fn tiny_profile_roundtrips_across_thread_counts() {
    // Snapshot bytes must not depend on the training thread count…
    let bytes_1 = ExpansionEngine::build(engine_config("tiny", 1, false))
        .expect("t1 builds")
        .to_snapshot()
        .expect("t1 snapshot")
        .to_bytes();
    let trained = ExpansionEngine::build(engine_config("tiny", 4, false)).expect("t4 builds");
    let bytes_4 = trained.to_snapshot().expect("t4 snapshot").to_bytes();
    assert_eq!(bytes_1, bytes_4, "snapshot bytes vary with thread count");

    // …nor must served answers depend on the loading thread count.
    for threads in [1, 4] {
        let loaded = ExpansionEngine::from_snapshot_bytes(
            &bytes_1,
            SnapshotRuntime {
                threads,
                ..SnapshotRuntime::default()
            },
        )
        .expect("snapshot loads");
        assert_derived_fingerprint(&loaded, &bytes_1);
        assert_identical_answers(&trained, &loaded);
    }
}

#[test]
fn tiny_profile_roundtrips_with_genexpan_enabled() {
    let trained = ExpansionEngine::build(engine_config("tiny", 0, true)).expect("builds");
    let bytes = trained.to_snapshot().expect("snapshot").to_bytes();
    let rebuilt = ExpansionEngine::build(engine_config("tiny", 0, true))
        .expect("rebuilds")
        .to_snapshot()
        .expect("re-snapshot")
        .to_bytes();
    assert_eq!(bytes, rebuilt, "two builds must produce identical files");

    let nglm = nglm_payload(&bytes);
    assert_eq!(fnv1a(nglm), TINY_NGLM_FNV, "the persisted LM's bytes moved");
    let lm = NgramLm::from_bytes(nglm).expect("NGLM decodes");
    assert_eq!(lm.to_bytes(), nglm, "NGLM re-encodes to the same bytes");

    let loaded = ExpansionEngine::from_snapshot_bytes(&bytes, SnapshotRuntime::default())
        .expect("snapshot loads");
    assert_eq!(loaded.methods(), trained.methods());
    assert_derived_fingerprint(&loaded, &bytes);
    assert_identical_answers(&trained, &loaded);
}

#[test]
fn small_profile_roundtrips_and_is_reproducible() {
    let trained = ExpansionEngine::build(engine_config("small", 1, false)).expect("builds");
    let bytes = trained.to_snapshot().expect("snapshot").to_bytes();

    // Reproducible: a second build (different thread count) → same file.
    let rebuilt = ExpansionEngine::build(engine_config("small", 4, false))
        .expect("rebuilds")
        .to_snapshot()
        .expect("re-snapshot")
        .to_bytes();
    assert_eq!(bytes, rebuilt, "two builds must produce identical files");

    let loaded = ExpansionEngine::from_snapshot_bytes(&bytes, SnapshotRuntime::default())
        .expect("snapshot loads");
    assert_derived_fingerprint(&loaded, &bytes);
    assert_identical_answers(&trained, &loaded);
}

#[test]
fn small_genexpan_snapshot_loads_with_the_derived_fingerprint() {
    let bytes = ExpansionEngine::build(engine_config("small", 0, true))
        .expect("builds")
        .to_snapshot()
        .expect("snapshot")
        .to_bytes();
    let nglm = nglm_payload(&bytes);
    let lm = NgramLm::from_bytes(nglm).expect("NGLM decodes");
    assert_eq!(lm.to_bytes(), nglm, "NGLM re-encodes to the same bytes");
    let loaded = ExpansionEngine::from_snapshot_bytes(&bytes, SnapshotRuntime::default())
        .expect("snapshot loads");
    assert_eq!(loaded.methods(), vec!["retexpan", "genexpan"]);
    assert_derived_fingerprint(&loaded, &bytes);
}
