//! Compress once per put: an R=2 gateway put runs one encode on the
//! acting primary, and the second replica stores the primary's record
//! after proving it decodes to the original. A record that fails the
//! proof, or a primary that is down, falls back to the replica's own
//! admission; no path loses or alters a byte.

use lepton_corpus::builder::{clean_jpeg, CorpusSpec};
use lepton_fleet::{FleetConfig, FleetGateway, HealthPolicy, LocalFleet};
use lepton_server::client::{self, RetryPolicy};
use lepton_server::ServiceConfig;
use lepton_storage::blockstore::{hex, StoreConfig};
use lepton_storage::sha256::{sha256, Digest};
use lepton_storage::StoredFormat;
use std::path::{Path, PathBuf};
use std::time::Duration;

const NODES: usize = 3;
const TIMEOUT: Duration = Duration::from_secs(30);

fn temp_root(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("lepton-fleet-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

fn fleet_cfg() -> FleetConfig {
    FleetConfig {
        replicas: 2,
        timeout: TIMEOUT,
        retry: RetryPolicy {
            attempts: 2,
            initial_backoff: Duration::from_millis(5),
            multiplier: 2,
            max_backoff: Duration::from_millis(20),
            jitter: Some(0x0E5C),
        },
        health: HealthPolicy {
            eject_after: 2,
            probation: Duration::from_secs(120),
        },
        ..Default::default()
    }
}

fn jpeg(seed: u64) -> Vec<u8> {
    let spec = CorpusSpec {
        min_dim: 64,
        max_dim: 112,
        ..Default::default()
    };
    clean_jpeg(&spec, seed)
}

/// The at-rest record file of `key` on a node, wherever its shard is.
fn record_file(node_root: &Path, key: &Digest) -> Vec<u8> {
    std::fs::read_dir(node_root)
        .unwrap()
        .map(|e| e.unwrap().path().join(hex(key)))
        .find(|p| p.exists())
        .map(|p| std::fs::read(p).unwrap())
        .expect("record on disk")
}

/// Per node: (Lepton blocks from a local encode, peer records,
/// round-trip failures).
fn admissions(fleet: &LocalFleet) -> Vec<(u64, u64, u64)> {
    (0..NODES)
        .map(|i| {
            let m = &fleet.store(i).metrics;
            let peer = m.peer_records.get();
            (
                m.lepton_blocks.get() - peer,
                peer,
                m.roundtrip_failures.get(),
            )
        })
        .collect()
}

fn node_root(root: &Path, idx: usize) -> PathBuf {
    root.join(lepton_fleet::local::node_name(idx))
}

#[test]
fn a_replicated_put_encodes_once_and_falls_back_safely() {
    let root = temp_root("encode-once");
    let store_cfg = StoreConfig {
        shards: 4,
        ..Default::default()
    };
    let mut fleet = LocalFleet::spawn(&root, NODES, &store_cfg, &ServiceConfig::default()).unwrap();
    let gw = FleetGateway::new(fleet.members().to_vec(), fleet_cfg());

    // 1. One encode fleet-wide: the primary admits the block itself,
    //    the second replica admits the primary's record.
    let data = jpeg(1);
    let key = gw.put(&data).unwrap();
    let set = gw.replica_set(&key);
    let (primary, second) = (set[0], set[1]);
    let counts = admissions(&fleet);
    assert_eq!(counts[primary], (1, 0, 0), "the primary encodes");
    assert_eq!(counts[second], (0, 1, 0), "the second replica proves");
    let encodes: u64 = counts.iter().map(|c| c.0).sum();
    assert_eq!(encodes, 1, "exactly one encode fleet-wide: {counts:?}");
    // Both hops are block writes in the node's put histogram, and the
    // peer admission is exported in Stats v2.
    let snap = client::probe_snapshot(&fleet.members()[second].1, TIMEOUT).unwrap();
    assert_eq!(snap.counter("store.peer_records"), 1);
    let hops: u64 = (0..NODES)
        .map(|i| {
            let snap = fleet.handle(i).unwrap().snapshot();
            snap.histogram("server.op.block_put.latency_us")
                .map_or(0, |h| h.count)
        })
        .sum();
    assert_eq!(hops, 2, "one block write per replica");

    // 2. The two replicas hold byte-identical records.
    assert_eq!(
        fleet.store(second).format_of(&key).unwrap(),
        Some(StoredFormat::Lepton)
    );
    assert_eq!(
        record_file(&node_root(&root, primary), &key),
        record_file(&node_root(&root, second), &key)
    );
    assert_eq!(gw.get(&key).unwrap().unwrap(), data);

    // 3. A tampered record falls back to the replica's own admission.
    let other = jpeg(2);
    let okey = sha256(&other);
    let oset = gw.replica_set(&okey);
    let ep = |i: usize| &fleet.members()[i].1;
    let (_, written) = client::block_put_record(ep(oset[0]), &other, None, TIMEOUT).unwrap();
    let (format, mut record) = written.expect("a fresh put hands back its record");
    assert_eq!(format, StoredFormat::Lepton);
    let mid = record.len() / 2;
    record[mid] ^= 0x01;
    let before = admissions(&fleet)[oset[1]];
    client::block_put_record(ep(oset[1]), &other, Some((format, &record)), TIMEOUT).unwrap();
    let after = admissions(&fleet)[oset[1]];
    assert_eq!(
        (after.0 - before.0, after.1 - before.1, after.2 - before.2),
        (1, 0, 1),
        "tampered record: one round-trip failure, one local encode"
    );
    assert_eq!(gw.get(&okey).unwrap().unwrap(), other);

    // 4. With the primary down, the put still lands on the second
    //    replica through its own admission.
    let third = jpeg(3);
    let tkey = sha256(&third);
    let tset = gw.replica_set(&tkey);
    fleet.kill(tset[0]);
    let before = admissions(&fleet)[tset[1]];
    assert_eq!(gw.put(&third).unwrap(), tkey);
    let after = admissions(&fleet)[tset[1]];
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (1, 0),
        "local admission"
    );
    assert_eq!(gw.metrics.partial_writes.get(), 1);
    assert_eq!(gw.get(&tkey).unwrap().unwrap(), third);

    drop(gw);
    drop(fleet);
    let _ = std::fs::remove_dir_all(&root);
}
