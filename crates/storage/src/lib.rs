//! Content-addressed block storage with transparent Lepton
//! recompression — the paper's blockserver back-end in library form.
//!
//! The Dropbox back-end stores files as up-to-4-MiB chunks addressed by
//! SHA-256 (§1, §5.6). Uploads of JPEG chunks are Lepton-compressed
//! *transparently*: a chunk is admitted in Lepton form only after a
//! byte-exact round-trip check; everything else falls back to Deflate
//! (§5.7). Downloads decompress on the fly; clients never see anything
//! but their original bytes.
//!
//! Operational controls from the paper are modeled too: the `/dev/shm`
//! shutoff switch (§5.7), the safety-net double-write (§5.7/§6.5), and
//! per-operation accounting that the cluster simulator consumes.
//!
//! Two stores live here: [`BlockStore`] is the in-memory model used by
//! the simulators and tests, and [`blockstore::ShardedStore`] is the
//! durable, sharded, disk-backed store the `lepton store` CLI and the
//! conversion service run on.

pub mod blockstore;
pub mod deploy;
pub mod sha256;
pub mod vfs;

use lepton_core::{CompressOptions, ExitCode, LeptonError};
use parking_lot::{Mutex, RwLock};
use sha256::{sha256, Digest};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The paper's chunk size: 4 MiB.
pub const CHUNK_SIZE: usize = 4 << 20;

/// How a stored chunk is encoded at rest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoredFormat {
    /// Lepton container (JPEG chunk that round-tripped).
    Lepton,
    /// zlib/Deflate fallback.
    Deflate,
    /// Raw (incompressible even by Deflate).
    Raw,
}

impl StoredFormat {
    /// The one-byte tag a block record carries, on disk and on the
    /// wire.
    pub fn to_byte(self) -> u8 {
        match self {
            StoredFormat::Lepton => b'L',
            StoredFormat::Deflate => b'Z',
            StoredFormat::Raw => b'R',
        }
    }

    /// Decode a record tag; `None` for anything unknown.
    pub fn from_byte(b: u8) -> Option<StoredFormat> {
        match b {
            b'L' => Some(StoredFormat::Lepton),
            b'Z' => Some(StoredFormat::Deflate),
            b'R' => Some(StoredFormat::Raw),
            _ => None,
        }
    }
}

#[derive(Clone, Debug)]
struct StoredChunk {
    format: StoredFormat,
    payload: Vec<u8>,
    original_len: usize,
}

/// Operation counters (drives §5 accounting and the cluster simulator).
#[derive(Debug, Default)]
pub struct StoreMetrics {
    /// Chunks admitted in Lepton form.
    pub lepton_chunks: AtomicU64,
    /// Chunks stored Deflate.
    pub deflate_chunks: AtomicU64,
    /// Chunks stored raw.
    pub raw_chunks: AtomicU64,
    /// Total original bytes ingested.
    pub bytes_in: AtomicU64,
    /// Total bytes at rest.
    pub bytes_stored: AtomicU64,
    /// Lepton decodes served.
    pub lepton_decodes: AtomicU64,
    /// Round-trip failures (fell back to Deflate).
    pub roundtrip_failures: AtomicU64,
}

impl StoreMetrics {
    /// Current storage savings fraction (0..1).
    pub fn savings(&self) -> f64 {
        let inb = self.bytes_in.load(Ordering::Relaxed) as f64;
        let st = self.bytes_stored.load(Ordering::Relaxed) as f64;
        if inb == 0.0 {
            0.0
        } else {
            1.0 - st / inb
        }
    }
}

/// The content-addressed chunk store.
pub struct BlockStore {
    chunks: RwLock<BTreeMap<Digest, StoredChunk>>,
    opts: CompressOptions,
    /// The §5.7 shutoff switch: when set, no new Lepton encodes happen
    /// (decodes of existing chunks continue).
    shutoff: AtomicBool,
    /// Safety net (§5.7): uncompressed duplicates kept during ramp-up.
    safety_net: Mutex<Option<BTreeMap<Digest, Vec<u8>>>>,
    /// Exit-code tally (§6.2 table).
    pub exit_codes: Mutex<BTreeMap<ExitCode, u64>>,
    /// Operation metrics.
    pub metrics: StoreMetrics,
}

impl Default for BlockStore {
    fn default() -> Self {
        Self::new(CompressOptions::default())
    }
}

impl BlockStore {
    /// New store with the given Lepton options.
    pub fn new(opts: CompressOptions) -> Self {
        BlockStore {
            chunks: RwLock::new(BTreeMap::new()),
            opts,
            shutoff: AtomicBool::new(false),
            safety_net: Mutex::new(None),
            exit_codes: Mutex::new(BTreeMap::new()),
            metrics: StoreMetrics::default(),
        }
    }

    /// Engage/disengage the Lepton shutoff switch (§5.7: "a script can
    /// populate the file across all hosts within 30 seconds").
    pub fn set_shutoff(&self, on: bool) {
        self.shutoff.store(on, Ordering::SeqCst);
    }

    /// Enable the safety net: every chunk is *also* stored uncompressed
    /// (the paper's S3 double-write during ramp-up, §5.7/§6.5).
    pub fn enable_safety_net(&self) {
        *self.safety_net.lock() = Some(BTreeMap::new());
    }

    /// Drop the safety net (the paper eventually deleted theirs).
    pub fn delete_safety_net(&self) {
        *self.safety_net.lock() = None;
    }

    fn record_exit(&self, code: ExitCode) {
        *self.exit_codes.lock().entry(code).or_insert(0) += 1;
    }

    /// Store one chunk (≤ 4 MiB); returns its content address.
    ///
    /// JPEG-looking chunks are Lepton-compressed and **verified by a
    /// full round trip before admission**; on any failure the chunk is
    /// stored Deflate (never rejected — durability first).
    pub fn put_chunk(&self, data: &[u8]) -> Digest {
        assert!(data.len() <= CHUNK_SIZE, "chunks are at most 4 MiB");
        let key = sha256(data);
        if self.chunks.read().contains_key(&key) {
            return key; // dedup
        }
        self.metrics
            .bytes_in
            .fetch_add(data.len() as u64, Ordering::Relaxed);

        if let Some(net) = self.safety_net.lock().as_mut() {
            net.insert(key, data.to_vec());
        }

        let lepton_allowed = !self.shutoff.load(Ordering::SeqCst);
        let stored = if lepton_allowed {
            match self.try_lepton(data) {
                Ok(payload) => {
                    self.record_exit(ExitCode::Success);
                    self.metrics.lepton_chunks.fetch_add(1, Ordering::Relaxed);
                    Some(StoredChunk {
                        format: StoredFormat::Lepton,
                        payload,
                        original_len: data.len(),
                    })
                }
                Err(e) => {
                    self.record_exit(ExitCode::classify(&e));
                    if matches!(e, LeptonError::RoundtripFailed) {
                        self.metrics
                            .roundtrip_failures
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    None
                }
            }
        } else {
            self.record_exit(ExitCode::ServerShutdown);
            None
        };

        let stored = stored.unwrap_or_else(|| {
            let z = lepton_deflate::zlib_compress(data, lepton_deflate::Level::Default);
            if z.len() < data.len() {
                self.metrics.deflate_chunks.fetch_add(1, Ordering::Relaxed);
                StoredChunk {
                    format: StoredFormat::Deflate,
                    payload: z,
                    original_len: data.len(),
                }
            } else {
                self.metrics.raw_chunks.fetch_add(1, Ordering::Relaxed);
                StoredChunk {
                    format: StoredFormat::Raw,
                    payload: data.to_vec(),
                    original_len: data.len(),
                }
            }
        });
        self.metrics
            .bytes_stored
            .fetch_add(stored.payload.len() as u64, Ordering::Relaxed);
        self.chunks.write().insert(key, stored);
        key
    }

    /// Lepton-compress with round-trip verification (the admission rule).
    fn try_lepton(&self, data: &[u8]) -> Result<Vec<u8>, LeptonError> {
        let mut opts = self.opts.clone();
        opts.verify = true; // non-negotiable for admission
        lepton_core::Engine::global().compress(data, &opts)
    }

    /// Retrieve a chunk's original bytes.
    pub fn get_chunk(&self, key: &Digest) -> Option<Vec<u8>> {
        let guard = self.chunks.read();
        let c = guard.get(key)?;
        match c.format {
            StoredFormat::Lepton => {
                self.metrics.lepton_decodes.fetch_add(1, Ordering::Relaxed);
                // Decode failures of admitted chunks would be the
                // paper's page-a-human alarm; surface as None. Decode
                // with the store's own model config: the container does
                // not negotiate the model, so a store running an
                // ablation model must read with the same one it wrote.
                lepton_core::Engine::global()
                    .decompress_opts(
                        &c.payload,
                        &lepton_core::DecompressOptions {
                            model: self.opts.model,
                            budget: self.opts.budget,
                        },
                    )
                    .ok()
            }
            StoredFormat::Deflate => {
                lepton_deflate::zlib_decompress(&c.payload, c.original_len).ok()
            }
            StoredFormat::Raw => Some(c.payload.clone()),
        }
    }

    /// How a chunk is stored (for tests/metrics).
    pub fn format_of(&self, key: &Digest) -> Option<StoredFormat> {
        self.chunks.read().get(key).map(|c| c.format)
    }

    /// Bytes at rest for a chunk.
    pub fn stored_size(&self, key: &Digest) -> Option<usize> {
        self.chunks.read().get(key).map(|c| c.payload.len())
    }

    /// Store a whole file: split into 4-MiB chunks, store each, return
    /// the chunk list (the paper's per-file manifest).
    pub fn put_file(&self, data: &[u8]) -> Vec<Digest> {
        data.chunks(CHUNK_SIZE).map(|c| self.put_chunk(c)).collect()
    }

    /// Reassemble a file from its manifest.
    pub fn get_file(&self, manifest: &[Digest]) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        for key in manifest {
            out.extend(self.get_chunk(key)?);
        }
        Some(out)
    }

    /// Recover a chunk from the safety net (disaster-recovery drill,
    /// §5.7).
    pub fn recover_from_safety_net(&self, key: &Digest) -> Option<Vec<u8>> {
        self.safety_net.lock().as_ref()?.get(key).cloned()
    }

    /// Number of chunks at rest.
    pub fn chunk_count(&self) -> usize {
        self.chunks.read().len()
    }

    /// Re-encode every Deflate/Raw chunk through Lepton (the backfill
    /// worker's inner loop, §5.6). Returns (converted, bytes saved).
    pub fn backfill_pass(&self) -> (usize, u64) {
        let keys: Vec<Digest> = {
            let guard = self.chunks.read();
            guard
                .iter()
                .filter(|(_, c)| c.format != StoredFormat::Lepton)
                .map(|(k, _)| *k)
                .collect()
        };
        let mut converted = 0usize;
        let mut saved = 0u64;
        for key in keys {
            if self.shutoff.load(Ordering::SeqCst) {
                break;
            }
            let Some(original) = self.get_chunk(&key) else {
                continue;
            };
            // The §5.6 worker "double-checks the result" — try_lepton
            // verifies, and we decode once more before committing.
            let Ok(lepton) = self.try_lepton(&original) else {
                continue;
            };
            if lepton_core::decompress(&lepton).as_deref() != Ok(original.as_slice()) {
                self.record_exit(ExitCode::RoundtripFailed);
                continue;
            }
            let mut guard = self.chunks.write();
            if let Some(c) = guard.get_mut(&key) {
                if lepton.len() < c.payload.len() {
                    saved += (c.payload.len() - lepton.len()) as u64;
                    c.payload = lepton;
                    c.format = StoredFormat::Lepton;
                    converted += 1;
                }
            }
        }
        (converted, saved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lepton_corpus::builder::{clean_jpeg, CorpusSpec};

    fn spec() -> CorpusSpec {
        CorpusSpec {
            min_dim: 64,
            max_dim: 160,
            ..Default::default()
        }
    }

    #[test]
    fn jpeg_chunk_stored_as_lepton() {
        let store = BlockStore::default();
        let jpg = clean_jpeg(&spec(), 1);
        let key = store.put_chunk(&jpg);
        assert_eq!(store.format_of(&key), Some(StoredFormat::Lepton));
        assert_eq!(store.get_chunk(&key).unwrap(), jpg);
        assert!(store.stored_size(&key).unwrap() < jpg.len());
        assert!(store.metrics.savings() > 0.0);
    }

    #[test]
    fn non_jpeg_falls_back_to_deflate() {
        let store = BlockStore::default();
        let data = b"text data that deflate handles".repeat(20);
        let key = store.put_chunk(&data);
        assert_eq!(store.format_of(&key), Some(StoredFormat::Deflate));
        assert_eq!(store.get_chunk(&key).unwrap(), data);
    }

    #[test]
    fn incompressible_stored_raw() {
        let mut x = 1u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        let store = BlockStore::default();
        let key = store.put_chunk(&data);
        assert_eq!(store.format_of(&key), Some(StoredFormat::Raw));
        assert_eq!(store.get_chunk(&key).unwrap(), data);
    }

    #[test]
    fn dedup_by_content() {
        let store = BlockStore::default();
        let jpg = clean_jpeg(&spec(), 2);
        let k1 = store.put_chunk(&jpg);
        let k2 = store.put_chunk(&jpg);
        assert_eq!(k1, k2);
        assert_eq!(store.chunk_count(), 1);
    }

    #[test]
    fn file_roundtrip() {
        let store = BlockStore::default();
        let jpg = clean_jpeg(&spec(), 3);
        let manifest = store.put_file(&jpg);
        assert_eq!(store.get_file(&manifest).unwrap(), jpg);
    }

    #[test]
    fn shutoff_switch_blocks_new_encodes() {
        let store = BlockStore::default();
        store.set_shutoff(true);
        let jpg = clean_jpeg(&spec(), 4);
        let key = store.put_chunk(&jpg);
        assert_ne!(store.format_of(&key), Some(StoredFormat::Lepton));
        assert_eq!(store.get_chunk(&key).unwrap(), jpg);
        // Exit code accounting saw the shutdown.
        assert!(store
            .exit_codes
            .lock()
            .contains_key(&ExitCode::ServerShutdown));
        // And backfill converts it once re-enabled.
        store.set_shutoff(false);
        let (converted, saved) = store.backfill_pass();
        assert_eq!(converted, 1);
        assert!(saved > 0);
        assert_eq!(store.format_of(&key), Some(StoredFormat::Lepton));
        assert_eq!(store.get_chunk(&key).unwrap(), jpg);
    }

    #[test]
    fn safety_net_recovers() {
        let store = BlockStore::default();
        store.enable_safety_net();
        let jpg = clean_jpeg(&spec(), 5);
        let key = store.put_chunk(&jpg);
        assert_eq!(store.recover_from_safety_net(&key).unwrap(), jpg);
        store.delete_safety_net();
        assert!(store.recover_from_safety_net(&key).is_none());
    }

    #[test]
    fn corrupt_jpeg_families_fall_back() {
        use lepton_corpus::corrupt;
        let store = BlockStore::default();
        let jpg = clean_jpeg(&spec(), 6);
        for data in [
            corrupt::progressive_lookalike(&jpg),
            corrupt::truncate(&jpg, 0.5),
            corrupt::cmyk_stub(7),
            corrupt::soi_prefixed_garbage(2000, 8),
        ] {
            let key = store.put_chunk(&data);
            assert_eq!(store.get_chunk(&key).unwrap(), data, "durability first");
            assert_ne!(store.format_of(&key), Some(StoredFormat::Lepton));
        }
        let codes = store.exit_codes.lock();
        assert!(codes.keys().any(|c| *c == ExitCode::Progressive));
    }

    #[test]
    fn exit_code_table_accumulates() {
        let store = BlockStore::default();
        for seed in 0..3 {
            store.put_chunk(&clean_jpeg(&spec(), seed));
        }
        let codes = store.exit_codes.lock();
        assert_eq!(codes.get(&ExitCode::Success), Some(&3));
    }
}
