//! The crash matrix: the store's durability invariant, proven by
//! exhaustion.
//!
//! One seeded put/record-put/get/backfill/scrub workload runs once
//! fault-free to
//! count its mutating filesystem operations, then runs again *N* times
//! over [`FaultVfs`] — once per injection point — with the power cut at
//! exactly that operation. After every crash the store is rebooted and
//! reopened (which runs the startup recovery sweep), and the invariant
//! is asserted:
//!
//! * every **acknowledged** put reads back byte-exact;
//! * every **unacknowledged** put is atomically absent, complete, or a
//!   typed refusal — never wrong bytes, never a panic;
//! * recovery leaves no orphaned tmp files and no torn records behind.
//!
//! Quick mode (the default) keeps the workload small enough for CI;
//! `CHAOS_FULL=1` enlarges it and sweeps more seeds. Set
//! `LEPTON_CHAOS_JSON=/path/out.json` to emit a machine-readable
//! summary (faults injected, crashes survived, recovery-time
//! histogram) — the chaos-smoke CI job archives it.

use lepton_corpus::{Corpus, CorpusSpec};
use lepton_storage::blockstore::{ShardedStore, StoreConfig, StoreError};
use lepton_storage::sha256::{sha256, Digest};
use lepton_storage::vfs::{FaultConfig, FaultVfs, Vfs};
use lepton_storage::StoredFormat;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

fn full() -> bool {
    std::env::var("CHAOS_FULL").is_ok_and(|v| v == "1")
}

fn store_cfg() -> StoreConfig {
    StoreConfig {
        shards: 4,
        cache_bytes: 0, // every read hits the (virtual) disk
        compress_on_write: false,
        ..StoreConfig::default()
    }
}

/// The matrix store encodes on write, so a peer record can be proven
/// and admitted; the plain puts go through `put_raw`, which is what
/// `put` is on a `compress_on_write: false` store, so `backfill` still
/// has raw JPEGs to convert.
fn matrix_cfg() -> StoreConfig {
    StoreConfig {
        compress_on_write: true,
        ..store_cfg()
    }
}

/// A put that carries a peer replica's record.
struct RecordPut {
    original: Vec<u8>,
    format: StoredFormat,
    record: Vec<u8>,
}

/// Record puts for the workload: true Lepton records (admitted after
/// their proof), a tampered one (refused, so the local encode runs
/// under the matrix too), and a raw record.
fn record_puts(seed: u64) -> Vec<RecordPut> {
    let corpus = Corpus::generate(&CorpusSpec {
        count: 8,
        min_dim: 48,
        max_dim: 64,
        clean_fraction: 1.0,
        seed: seed ^ 0x2EC0,
    });
    let opts = matrix_cfg().compress;
    // Only JPEGs the codec shrinks: a record no smaller than its
    // original is refused by design.
    let mut puts: Vec<RecordPut> = corpus
        .files
        .into_iter()
        .map(|f| RecordPut {
            record: lepton_core::compress(&f.data, &opts).expect("clean JPEG compresses"),
            original: f.data,
            format: StoredFormat::Lepton,
        })
        .filter(|p| p.record.len() < p.original.len())
        .take(3)
        .collect();
    assert_eq!(
        puts.len(),
        3,
        "the corpus has three JPEGs the codec shrinks"
    );
    let last = puts.last_mut().expect("three puts");
    let mid = last.record.len() / 2;
    last.record[mid] ^= 0x20;
    puts.push(RecordPut {
        original: b"a raw record: the original is the payload".repeat(9),
        format: StoredFormat::Raw,
        record: Vec::new(),
    });
    puts
}

/// Deterministic workload bytes: seeded pseudo-random blobs plus a few
/// real JPEGs, so `backfill` genuinely converts (and its rewrite path
/// sits inside the crash matrix too).
fn workload_blobs(seed: u64) -> Vec<Vec<u8>> {
    let (random_n, jpeg_n) = if full() { (16, 3) } else { (5, 2) };
    let mut blobs = Vec::new();
    let mut z = seed | 1;
    for i in 0..random_n {
        let len = 64 + ((z >> 7) % 1800) as usize;
        let mut b = Vec::with_capacity(len);
        for _ in 0..len {
            z = z
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64 + 1);
            b.push((z >> 33) as u8);
        }
        blobs.push(b);
    }
    let corpus = Corpus::generate(&CorpusSpec {
        count: jpeg_n,
        min_dim: 16,
        max_dim: 24,
        clean_fraction: 1.0,
        seed: seed ^ 0x1A6E,
    });
    blobs.extend(corpus.files.into_iter().map(|f| f.data));
    blobs
}

/// Drive the workload, recording every acknowledged put. Errors are
/// expected once the power is cut; what is never acceptable is a panic
/// or a wrong read.
fn run_workload(
    vfs: &Arc<FaultVfs>,
    store: &ShardedStore,
    blobs: &[Vec<u8>],
    records: &[RecordPut],
    acked: &mut Vec<(Digest, Vec<u8>)>,
) {
    let mut records = records.iter();
    for (i, blob) in blobs.iter().enumerate() {
        match store.put_raw(blob) {
            Ok(key) => acked.push((key, blob.clone())),
            Err(StoreError::Io(_) | StoreError::ReadOnly(_)) => {}
            Err(e) => panic!("put may fail only with a typed I/O error, got {e:?}"),
        }
        if let Some(put) = records.next() {
            match store.put_record(&put.original, put.format, &put.record) {
                Ok(key) => acked.push((key, put.original.clone())),
                Err(StoreError::Io(_) | StoreError::ReadOnly(_)) => {}
                Err(e) => panic!("record put may fail only with a typed I/O error, got {e:?}"),
            }
        }
        // Interleave reads: while the machine is up, an acked put must
        // already read back exactly.
        if i % 2 == 1 {
            for (key, expect) in acked.iter() {
                match store.get(key) {
                    Ok(Some(got)) => assert_eq!(&got, expect, "live read must be exact"),
                    Ok(None) => {
                        assert!(vfs.crashed(), "acked put vanished while the machine was up")
                    }
                    Err(_) => {} // powered off or typed refusal
                }
            }
        }
    }
    let _ = store.backfill(1);
    let _ = store.scrub(1);
}

/// Assert the durability invariant against a freshly recovered store.
fn assert_invariant(
    store: &ShardedStore,
    blobs: &[Vec<u8>],
    records: &[RecordPut],
    acked: &[(Digest, Vec<u8>)],
) {
    for (key, expect) in acked {
        let got = store
            .get(key)
            .unwrap_or_else(|e| panic!("acked put must be readable after recovery: {e:?}"))
            .unwrap_or_else(|| panic!("acked put missing after recovery"));
        assert_eq!(&got, expect, "acked put must be byte-exact");
    }
    for blob in blobs.iter().chain(records.iter().map(|r| &r.original)) {
        let key = sha256(blob);
        match store.get(&key) {
            Ok(Some(got)) => assert_eq!(&got, blob, "a present block must be complete"),
            Ok(None) => {}                    // atomically absent
            Err(StoreError::Corrupt(_)) => {} // refused, never served wrong
            Err(e) => panic!("recovered get must not fail with {e:?}"),
        }
    }
    let report = store.recover(false).expect("post-recovery sweep");
    assert_eq!(report.orphans_found, 0, "recovery must sweep every tmp");
    assert_eq!(
        report.torn_found, 0,
        "recovery must quarantine every torn record"
    );
}

#[test]
fn crash_at_every_injection_point_preserves_acked_puts() {
    let seeds: &[u64] = if full() {
        &[0xC4A5_0001, 0xC4A5_0002]
    } else {
        &[0xC4A5_0001]
    };
    let root = Path::new("/store");
    let mut total_points = 0u64;
    let mut crashes_survived = 0u64;
    let mut faults_injected = 0u64;
    let mut recovery_ms: Vec<f64> = Vec::new();

    for &seed in seeds {
        let blobs = workload_blobs(seed);
        let records = record_puts(seed);
        assert!(
            records.len() <= blobs.len(),
            "each record put follows a put"
        );

        // Fault-free replay: size the matrix.
        let vfs = FaultVfs::new(FaultConfig::default());
        let store = ShardedStore::open_on(vfs.clone() as Arc<dyn Vfs>, root, matrix_cfg())
            .expect("fault-free open");
        let mut acked = Vec::new();
        run_workload(&vfs, &store, &blobs, &records, &mut acked);
        assert_eq!(
            acked.len(),
            blobs.len() + records.len(),
            "fault-free run acks everything"
        );
        // Two true records were proven and admitted; the tampered one
        // fell back to the local encode.
        assert_eq!(store.metrics.peer_records.get(), 2);
        assert_eq!(store.metrics.roundtrip_failures.get(), 1);
        assert_invariant(&store, &blobs, &records, &acked);
        let ops = vfs.op_count();
        assert!(ops > 0, "workload must touch the disk");
        total_points += ops;

        // The matrix: crash at every mutating operation (0-indexed).
        for k in 0..ops {
            let vfs = FaultVfs::new(FaultConfig::crash_only(seed, k));
            let mut acked = Vec::new();
            // A crash during open itself is fine: nothing acked yet.
            if let Ok(store) =
                ShardedStore::open_on(vfs.clone() as Arc<dyn Vfs>, root, matrix_cfg())
            {
                run_workload(&vfs, &store, &blobs, &records, &mut acked);
            }
            assert!(vfs.crashed(), "crash point {k} within the replayed ops");
            faults_injected += vfs.fault_log().len() as u64;

            vfs.reboot();
            let t0 = Instant::now();
            let store = ShardedStore::open_on(vfs.clone() as Arc<dyn Vfs>, root, matrix_cfg())
                .unwrap_or_else(|e| panic!("reopen after crash at {k} must recover: {e:?}"));
            recovery_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            assert_invariant(&store, &blobs, &records, &acked);
            crashes_survived += 1;
        }
    }

    assert_eq!(crashes_survived, total_points);
    write_summary(
        total_points,
        crashes_survived,
        faults_injected,
        &recovery_ms,
    );
}

/// The seeded storm tier: probabilistic EIO / ENOSPC / short writes on
/// top of normal traffic. Every failure must be typed, reads must never
/// return wrong bytes, and an ENOSPC anywhere latches read-only instead
/// of half-writing.
#[test]
fn seeded_fault_storm_never_serves_wrong_bytes() {
    let seeds: u64 = if full() { 24 } else { 6 };
    for seed in 0..seeds {
        let cfg = FaultConfig {
            seed: 0x5708_0000 + seed,
            eio_per_mille: 25,
            enospc_per_mille: 10,
            short_write_per_mille: 25,
            crash_at: None,
        };
        let vfs = FaultVfs::new(cfg);
        let blobs = workload_blobs(0xB10B ^ seed);
        let Ok(store) = ShardedStore::open_on(vfs.clone() as Arc<dyn Vfs>, "/store", store_cfg())
        else {
            continue; // the schedule broke open itself: a typed refusal
        };
        let mut acked = Vec::new();
        for blob in &blobs {
            match store.put(blob) {
                Ok(key) => acked.push((key, blob.clone())),
                Err(StoreError::Io(_) | StoreError::ReadOnly(_)) => {}
                Err(e) => panic!("storm put failed untyped: {e:?}"),
            }
        }
        for (key, expect) in &acked {
            match store.get(key) {
                Ok(Some(got)) => assert_eq!(&got, expect, "storm read must be exact"),
                Ok(None) => panic!("acked put vanished without a crash"),
                Err(StoreError::Io(_) | StoreError::Corrupt(_)) => {}
                Err(e) => panic!("storm get failed untyped: {e:?}"),
            }
        }
        // If the schedule dealt an ENOSPC into the write path, the
        // store must have latched rather than limped.
        if store.is_read_only() {
            let reason = store.read_only_reason().unwrap_or_default();
            assert!(!reason.is_empty(), "a latch always carries its reason");
        }
    }
}

fn write_summary(points: u64, survived: u64, faults: u64, recovery_ms: &[f64]) {
    let Ok(path) = std::env::var("LEPTON_CHAOS_JSON") else {
        return;
    };
    // Fixed buckets (ms) — a coarse histogram is plenty to spot a
    // recovery-time regression in CI artifacts.
    let edges = [1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0];
    let mut buckets = vec![0u64; edges.len() + 1];
    for &ms in recovery_ms {
        let i = edges.iter().position(|&e| ms < e).unwrap_or(edges.len());
        buckets[i] += 1;
    }
    let hist: Vec<String> = edges
        .iter()
        .map(|e| format!("\"<{e}ms\""))
        .chain([format!("\">={}ms\"", edges[edges.len() - 1])])
        .zip(&buckets)
        .map(|(label, n)| format!("{{\"bucket\":{label},\"count\":{n}}}"))
        .collect();
    let json = format!(
        "{{\"suite\":\"crash_matrix\",\"injection_points\":{points},\
\"crashes_survived\":{survived},\"faults_injected\":{faults},\
\"recovery_time_histogram\":[{}]}}\n",
        hist.join(",")
    );
    std::fs::write(&path, json).expect("chaos summary path writable");
}
