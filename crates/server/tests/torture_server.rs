//! Torture rig over the conversion service's socket surface: every
//! mutated or hostile payload must come back as a clean protocol-level
//! refusal (a §6.2 exit-code row, or a protocol status) — the service
//! never dies, never hangs, and never serves wrong bytes.

use lepton_core::{CompressOptions, ExitCode, ResourceBudget};
use lepton_corpus::builder::{clean_jpeg, CorpusSpec};
use lepton_corpus::{hostile_cases, mutation_matrix, rig::RigCase};
use lepton_server::{client, serve, ClientError, Endpoint, ServiceConfig, Status};
use lepton_storage::blockstore::{ShardedStore, StoreConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(60);

fn spec() -> CorpusSpec {
    CorpusSpec {
        min_dim: 48,
        max_dim: 112,
        ..Default::default()
    }
}

fn tcp_any() -> Endpoint {
    Endpoint::tcp("127.0.0.1:0").unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("lepton-srv-torture-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn torture_cases() -> Vec<RigCase> {
    let bases: Vec<(String, Vec<u8>)> = (0..2)
        .map(|i| (format!("jpeg{i}"), clean_jpeg(&spec(), 0x5E4E ^ i)))
        .collect();
    let named: Vec<(&str, Vec<u8>)> = bases.iter().map(|(n, d)| (n.as_str(), d.clone())).collect();
    let mut cases = mutation_matrix(&named, &[0xF00D]);
    cases.extend(hostile_cases());
    cases
}

/// A refusal a hostile payload is allowed to earn. Timeouts, transport
/// resets, or anything else mean the service choked — a violation.
fn acceptable_refusal(label: &str, err: &ClientError) {
    match err {
        ClientError::Refused(Status::Rejected(code)) => assert!(
            !code.is_operational(),
            "{label}: input refused onto operational row {code:?}"
        ),
        ClientError::Refused(_) => {}
        other => panic!("{label}: service choked instead of refusing: {other:?}"),
    }
}

#[test]
fn compress_op_survives_the_matrix() {
    let handle = serve(&tcp_any(), ServiceConfig::default()).unwrap();
    let mut accepted = 0usize;
    for case in torture_cases() {
        match client::compress(handle.endpoint(), &case.input, TIMEOUT) {
            Ok(lepton) => {
                // Anything the server admits must decompress back to
                // the exact bytes we sent — through the same server.
                let back = client::decompress(handle.endpoint(), &lepton, TIMEOUT).unwrap();
                assert_eq!(back, case.input, "{}: wrong bytes", case.label);
                accepted += 1;
            }
            Err(e) => acceptable_refusal(&case.label, &e),
        }
    }
    assert!(accepted >= 2, "pristine bases must be served");
    // The service is still healthy after the whole matrix.
    client::ping(handle.endpoint(), TIMEOUT).unwrap();
    handle.shutdown();
}

#[test]
fn decompress_op_survives_mutated_containers() {
    let handle = serve(&tcp_any(), ServiceConfig::default()).unwrap();
    let jpeg = clean_jpeg(&spec(), 0xDE);
    let container = client::compress(handle.endpoint(), &jpeg, TIMEOUT).unwrap();
    let cases = mutation_matrix(&[("container", container)], &[0xF00D, 0xBEEF]);
    for case in &cases {
        match client::decompress(handle.endpoint(), &case.input, TIMEOUT) {
            // A mutated container that still parses may decode; the
            // pristine case must give back the original.
            Ok(bytes) => {
                if case.label.ends_with("pristine") {
                    assert_eq!(bytes, jpeg);
                }
            }
            Err(e) => acceptable_refusal(&case.label, &e),
        }
    }
    client::ping(handle.endpoint(), TIMEOUT).unwrap();
    handle.shutdown();
}

#[test]
fn block_ops_survive_the_matrix_and_never_lose_bytes() {
    let root = temp_dir("blocks");
    let store = Arc::new(ShardedStore::open(&root, StoreConfig::default()).unwrap());
    let cfg = ServiceConfig {
        blockstore: Some(store),
        ..Default::default()
    };
    let handle = serve(&tcp_any(), cfg).unwrap();
    for case in torture_cases() {
        // BlockPut takes arbitrary content (hostile JPEGs just land
        // raw); whatever went in must come back byte-exact.
        let key = client::block_put(handle.endpoint(), &case.input, TIMEOUT)
            .unwrap_or_else(|e| panic!("{}: BlockPut refused content: {e:?}", case.label));
        let back = client::block_get(handle.endpoint(), &key, TIMEOUT)
            .unwrap_or_else(|e| panic!("{}: BlockGet failed: {e:?}", case.label));
        assert_eq!(
            back.as_deref(),
            Some(case.input.as_slice()),
            "{}: wrong bytes from store",
            case.label
        );
    }
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn budget_starved_block_get_is_rejected_with_the_decode_row() {
    let root = temp_dir("budget");
    // Admit one block as Lepton under the default budget.
    {
        let store = ShardedStore::open(&root, StoreConfig::default()).unwrap();
        store.put(&clean_jpeg(&spec(), 0xB1)).unwrap();
    }
    // Serve the same store through a handle whose decode budget cannot
    // fit any decode: BlockGet must answer Rejected(MemDecodeLimit),
    // and the record must not be quarantined by the refusal.
    let starved = Arc::new(
        ShardedStore::open(
            &root,
            StoreConfig {
                cache_bytes: 0,
                compress: CompressOptions {
                    budget: ResourceBudget {
                        decode_bytes: 1 << 10,
                        ..Default::default()
                    },
                    ..Default::default()
                },
                ..Default::default()
            },
        )
        .unwrap(),
    );
    let key = starved.keys().unwrap()[0];
    let cfg = ServiceConfig {
        blockstore: Some(starved.clone()),
        ..Default::default()
    };
    let handle = serve(&tcp_any(), cfg).unwrap();
    match client::block_get(handle.endpoint(), &key, TIMEOUT) {
        Err(ClientError::Refused(Status::Rejected(code))) => {
            assert_eq!(code, ExitCode::MemDecodeLimit)
        }
        other => panic!("expected Rejected(MemDecodeLimit), got {other:?}"),
    }
    handle.shutdown();
    drop(starved);
    // The refusal is policy, not damage: a normally-budgeted handle
    // still finds the record healthy and serves it.
    let reader = ShardedStore::open(&root, StoreConfig::default()).unwrap();
    assert!(
        reader.check_block(&key).unwrap(),
        "budget refusal must not quarantine a healthy record"
    );
    assert!(reader.get(&key).unwrap().is_some());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn malformed_record_put_bodies_get_a_clean_refusal() {
    use lepton_server::protocol::RecordPut;
    use lepton_server::Op;
    use lepton_storage::StoredFormat;

    let root = temp_dir("record-put");
    let store = Arc::new(ShardedStore::open(&root, StoreConfig::default()).unwrap());
    let cfg = ServiceConfig {
        blockstore: Some(Arc::clone(&store)),
        ..Default::default()
    };
    let handle = serve(&tcp_any(), cfg).unwrap();
    let jpeg = clean_jpeg(&spec(), 0x4EC);
    let record = b"a stand-in container".to_vec();
    let mut well_formed = RecordPut::header(Some((StoredFormat::Lepton, &record))).to_vec();
    well_formed.extend_from_slice(&record);
    well_formed.extend_from_slice(&jpeg);

    let mut cases: Vec<(String, Vec<u8>)> = (0..RecordPut::header(None).len())
        .map(|n| {
            (
                format!("length prefix cut to {n} bytes"),
                well_formed[..n].to_vec(),
            )
        })
        .collect();
    for len in [well_formed.len() as u32, u32::MAX] {
        let mut past_end = well_formed.clone();
        past_end[1..5].copy_from_slice(&len.to_le_bytes());
        cases.push((format!("record length {len} past the end"), past_end));
    }
    let mut unknown = well_formed.clone();
    unknown[0] = 0xEE;
    cases.push(("unknown format tag".into(), unknown));
    let mut raw_with_record = well_formed.clone();
    raw_with_record[0] = StoredFormat::Raw.to_byte();
    cases.push(("raw tag with a record".into(), raw_with_record));

    for (label, body) in &cases {
        match client::convert(handle.endpoint(), Op::BlockPutRecord, body, TIMEOUT) {
            Ok((Status::BadRequest, reply)) => assert!(reply.is_empty(), "{label}"),
            other => panic!("{label}: expected a clean BadRequest, got {other:?}"),
        }
    }
    assert_eq!(
        store.keys().unwrap().len(),
        0,
        "nothing malformed was stored"
    );
    // The well-formed body with a bogus record still lands, byte-exact,
    // through the local fallback.
    let (key, _) = client::block_put_record(
        handle.endpoint(),
        &jpeg,
        Some((StoredFormat::Lepton, &record)),
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(
        client::block_get(handle.endpoint(), &key, TIMEOUT)
            .unwrap()
            .unwrap(),
        jpeg
    );
    assert_eq!(store.metrics.roundtrip_failures.get(), 1);
    client::ping(handle.endpoint(), TIMEOUT).unwrap();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
