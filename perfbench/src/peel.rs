//! The traced layer-peel run.
//!
//! Tracing here lives in the benchmark, not the program: for each
//! sample the benchmark calls every layer's public entry point itself,
//! top to bottom, and records one span per call —
//!
//! | layer   | put chain                             | get chain                   |
//! |---------|---------------------------------------|-----------------------------|
//! | fleet   | `FleetGateway::put`                   | `FleetGateway::get`         |
//! | server  | `client::block_put` (one replica)     | `client::block_get`         |
//! | storage | `ShardedStore::put`                   | `ShardedStore::get`         |
//! | core    | `Engine::compress` (verify off, on)   | `Engine::decompress_opts`   |
//! | jpeg    | `parse`, `decode_scan`                | `encode_scan_whole`         |
//!
//! Each call gets the cache state the timed operation sees: writes
//! always carry fresh bytes (a per-call stamp of the sample's base
//! image), and reads of the cold and ingest workloads read keys that
//! were just written and never read, while read-hot reads its cached
//! catalog keys ([`CACHED_READS`] times each). The peel is layer-major: each client makes one
//! layer's calls for all its samples back to back, and the clients
//! start each layer together at a barrier, so a layer is measured
//! under the timed loop's two-way closed-loop contention.
//!
//! A layer's self time is its mean call time minus the mean time of
//! the layer below, weighted by how often it calls it (hops per
//! gateway op from the node counters; a storage read decodes only on a
//! cache miss of a Lepton record). The self times therefore add up to
//! the traced gateway op by construction: that sum checks nothing. Two
//! things are checked instead. The traced op is compared with the
//! untraced mean op of the timed window, and each self time must not be
//! negative beyond its noise (twice its standard error over the
//! samples): a layer measured faster than the calls it makes is one the
//! peel did not resolve ([`Attribution::unresolved`]).

use crate::harness::{Harness, CLIENTS};
use crate::inputs::{stamp, Block};
use crate::measure::Abort;
use lepton_core::{CompressOptions, DecompressOptions, Engine};
use lepton_jpeg::scan::{decode_scan, encode_scan_whole, EncodeParams};
use lepton_server::client;
use lepton_storage::blockstore::StoreConfig;
use lepton_storage::sha256::{sha256, Digest};
use lepton_storage::StoredFormat;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span id (unique in the run).
    pub id: u64,
    /// The span of the layer above in the same chain, if any.
    pub parent: Option<u64>,
    /// Request id: the peel sample the call belongs to.
    pub request: u64,
    /// Layer call name, e.g. `storage.get`.
    pub name: &'static str,
    /// Start, in ns since the peel began.
    pub start_ns: u64,
    /// End, in ns since the peel began.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ms.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// What the peel measured for one sample (all times in ms; a step that
/// did not run, e.g. a decode of a block the codec refused, reads 0).
#[derive(Clone, Copy, Debug, Default)]
pub struct SampleTimes {
    pub fleet_put: f64,
    pub server_put: f64,
    pub storage_put: f64,
    pub compress_off: f64,
    pub compress_on: f64,
    pub decompress: f64,
    pub parse: f64,
    pub huffman_decode: f64,
    pub huffman_encode: f64,
    pub fleet_get: f64,
    pub server_get: f64,
    pub storage_get: f64,
    /// The bytes start like a JPEG, so the store's admission gate runs
    /// the codec on them.
    pub jpeg_like: bool,
    /// `compress` (verify on) accepted the block.
    pub compressed: bool,
    /// The storage-layer read key is stored as a Lepton record.
    pub lepton_at_rest: bool,
    /// Thread segments the container used.
    pub segments: u32,
    /// Put and get calls that returned an error.
    pub failures: u32,
    /// Scan bytes in and out, header bytes in and out (model stats).
    pub scan_in: u64,
    pub scan_out: u64,
    pub header_in: u64,
    pub header_out: u64,
}

/// Everything the peel produced.
pub struct Peel {
    /// Per-sample measurements.
    pub samples: Vec<SampleTimes>,
    /// Every span, in no particular order.
    pub spans: Vec<Span>,
    /// Put and get calls made (each can fail).
    pub calls: usize,
    /// Store cache hits and misses during the peel (only the get chain
    /// reads through the cache).
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// How the get chain picks its keys.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum GetKeys {
    /// Read the sample's own catalog key (already cached: read-hot).
    Catalog,
    /// Read the variants the put chain just wrote (never read yet).
    Fresh,
}

impl GetKeys {
    /// Reads per layer and sample.
    fn reads(self) -> usize {
        match self {
            GetKeys::Catalog => CACHED_READS,
            GetKeys::Fresh => 1,
        }
    }
}

struct Recorder {
    t0: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// Time `f` as span `name` of request `req` under `parent`.
    fn span<T>(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, f64, u64) {
        let start = self.t0.elapsed();
        let out = f();
        let end = self.t0.elapsed();
        let id = self.next_id;
        self.next_id += CLIENTS as u64;
        let span = Span {
            id,
            parent,
            request: req,
            name,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        };
        let ms = span.ms();
        self.spans.push(span);
        (out, ms, id)
    }
}

/// One sample as a client carries it through the phases.
struct Chain<'a> {
    req: u64,
    base: &'a Block,
    /// Content addresses of the three per-layer variants.
    keys: [Digest; 3],
    /// The base block's container, once `compress` took it.
    container: Option<Vec<u8>>,
    t: SampleTimes,
    /// Span ids of the calls later spans name as parents.
    fleet_put: u64,
    server_put: u64,
    storage_put: u64,
    compress: u64,
    fleet_get: u64,
    server_get: u64,
}

impl Chain<'_> {
    fn variant(&self, seed: u64, layer: usize) -> Vec<u8> {
        stamp(
            &self.base.data,
            &format!("s{seed} peel{} layer{layer}", self.req),
        )
    }

    /// The key the get chain's `layer` reads, and the bytes it must
    /// return.
    fn get_target(&self, keys: GetKeys, seed: u64, layer: usize) -> (Digest, Vec<u8>) {
        match keys {
            GetKeys::Catalog => (self.base.key, self.base.data.clone()),
            GetKeys::Fresh => (self.keys[layer], self.variant(seed, layer)),
        }
    }
}

/// Run the peel: `bases[s]` is sample `s`'s base block; sample `s` runs
/// on client `s % CLIENTS`. The peel is layer-major: every client runs
/// one layer's calls for all its samples back to back (the timed loop's
/// closed-loop contention), then waits for the others at a barrier
/// before the next layer, so each layer is measured in isolation.
pub fn run(h: &Harness, bases: &[&Block], keys: GetKeys, seed: u64, abort: &Abort) -> Peel {
    let barrier = Barrier::new(CLIENTS);
    let t0 = Instant::now();
    let before = h.stores();
    let results = Mutex::new((Vec::new(), Vec::new()));
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let (barrier, results) = (&barrier, &results);
            s.spawn(move || {
                let mut rec = Recorder {
                    t0,
                    next_id: c as u64,
                    spans: Vec::new(),
                };
                let mut chains: Vec<Chain> = (c..bases.len())
                    .step_by(CLIENTS)
                    .map(|i| {
                        let base = bases[i];
                        let mut chain = Chain {
                            req: i as u64,
                            base,
                            keys: [[0; 32]; 3],
                            container: None,
                            t: SampleTimes::default(),
                            fleet_put: 0,
                            server_put: 0,
                            storage_put: 0,
                            compress: 0,
                            fleet_get: 0,
                            server_get: 0,
                        };
                        chain.keys = [0, 1, 2].map(|l| sha256(&chain.variant(seed, l)));
                        chain.t.jpeg_like =
                            base.data.len() > 3 && base.data[..3] == [0xFF, 0xD8, 0xFF];
                        chain
                    })
                    .collect();
                peel_client(h, &mut chains, keys, seed, barrier, &mut rec, abort);
                let mut r = results.lock().expect("peel results");
                r.0.extend(chains.iter().map(|ch| ch.t));
                r.1.extend(rec.spans);
            });
        }
    });
    let after = h.stores().since(before);
    let (samples, spans) = results.into_inner().expect("peel results");
    Peel {
        calls: samples.len() * 3 * (1 + keys.reads()),
        samples,
        spans,
        cache_hits: after.cache_hits,
        cache_misses: after.cache_misses,
    }
}

/// Reads per layer of each already-cached key (read-hot's get chain).
const CACHED_READS: usize = 16;

fn timeout() -> Duration {
    crate::harness::fleet_config().timeout
}

fn compress_opts(cfg: &StoreConfig, verify: bool) -> CompressOptions {
    CompressOptions {
        verify,
        ..cfg.compress.clone()
    }
}

/// One client's share of the peel, phase by phase: the put chain on
/// three fresh variants per sample, the codec and JPEG stages on the
/// base bytes, then the get chain. A wrong answer aborts the run; an
/// error is counted in the sample and the phases go on, so the
/// barrier never waits for a client that left.
fn peel_client(
    h: &Harness,
    chains: &mut [Chain],
    keys: GetKeys,
    seed: u64,
    barrier: &Barrier,
    rec: &mut Recorder,
    abort: &Abort,
) {
    let cfg = crate::harness::store_config();
    let engine = Engine::global();
    let check = |ch: &mut Chain, what: &str, outcome: Result<bool, ()>| match outcome {
        Ok(true) => {}
        Ok(false) => abort.fail(format!("peel sample {}: {what}", ch.req)),
        Err(()) => ch.t.failures += 1,
    };

    barrier.wait();
    for ch in chains.iter_mut() {
        let data = ch.variant(seed, 0);
        let (r, ms, id) = rec.span(ch.req, "fleet.put", None, || h.gw.put(&data));
        (ch.t.fleet_put, ch.fleet_put) = (ms, id);
        let want = ch.keys[0];
        check(
            ch,
            "gateway put acked a different key",
            r.map(|k| k == want).map_err(drop),
        );
    }
    barrier.wait();
    for ch in chains.iter_mut() {
        let data = ch.variant(seed, 1);
        let ep = h.fleet.members()[h.primary(&ch.keys[1])].1.clone();
        let (r, ms, id) = rec.span(ch.req, "server.block_put", Some(ch.fleet_put), || {
            client::block_put(&ep, &data, timeout())
        });
        (ch.t.server_put, ch.server_put) = (ms, id);
        let want = ch.keys[1];
        check(
            ch,
            "node put acked a different key",
            r.map(|k| k == want).map_err(drop),
        );
    }
    barrier.wait();
    for ch in chains.iter_mut() {
        let data = ch.variant(seed, 2);
        let store = h.fleet.store(h.primary(&ch.keys[2]));
        let (r, ms, id) = rec.span(ch.req, "storage.put", Some(ch.server_put), || {
            store.put(&data)
        });
        (ch.t.storage_put, ch.storage_put) = (ms, id);
        let want = ch.keys[2];
        check(
            ch,
            "store put returned a different key",
            r.map(|k| k == want).map_err(drop),
        );
    }

    // Codec: compress without and with the round-trip verify, then the
    // store's own check decode of the container, each call kind in a
    // phase of its own, so that a decode contends with decodes as a
    // cold store read does.
    barrier.wait();
    for ch in chains.iter_mut() {
        let data = &ch.base.data;
        let (stats, ms, _) = rec.span(ch.req, "core.compress", Some(ch.storage_put), || {
            engine.compress_with_stats(data, &compress_opts(&cfg, false))
        });
        ch.t.compress_off = ms;
        if let Ok((_, st)) = &stats {
            ch.t.segments = st.segments;
            ch.t.scan_in = st.scan_in.total_bits() / 8;
            ch.t.scan_out = st.scan_out.total();
            ch.t.header_in = st.header_in as u64;
            ch.t.header_out = st.header_out as u64;
        }
    }
    barrier.wait();
    for ch in chains.iter_mut() {
        let data = &ch.base.data;
        let (container, ms, id) = rec.span(
            ch.req,
            "core.compress_verified",
            Some(ch.storage_put),
            || engine.compress(data, &compress_opts(&cfg, true)),
        );
        (ch.t.compress_on, ch.compress) = (ms, id);
        ch.t.compressed = container.is_ok();
        ch.container = container.ok();
    }
    barrier.wait();
    let dec_opts = DecompressOptions {
        model: cfg.compress.model,
        budget: cfg.compress.budget,
    };
    for ch in chains.iter_mut() {
        let Some(c) = ch.container.take() else {
            continue;
        };
        let (back, ms, _) = rec.span(ch.req, "core.decompress", Some(ch.storage_put), || {
            engine.decompress_opts(&c, &dec_opts)
        });
        ch.t.decompress = ms;
        let same = back.as_deref() == Ok(&ch.base.data[..]);
        check(ch, "decompress did not return the original", Ok(same));
    }

    // JPEG stages on the base bytes (only where the codec took them).
    barrier.wait();
    for ch in chains.iter_mut().filter(|ch| ch.t.compressed) {
        let data = &ch.base.data;
        let (parsed, ms, _) = rec.span(ch.req, "jpeg.parse", Some(ch.compress), || {
            lepton_jpeg::parse(data)
        });
        ch.t.parse = ms;
        let Ok(p) = parsed else {
            check(ch, "a block the codec took does not parse", Ok(false));
            continue;
        };
        let (scan, ms, _) = rec.span(ch.req, "jpeg.decode_scan", Some(ch.compress), || {
            decode_scan(data, &p, &[])
        });
        ch.t.huffman_decode = ms;
        let Ok((sd, _)) = scan else {
            check(
                ch,
                "a block the codec took fails its scan decode",
                Ok(false),
            );
            continue;
        };
        let params = EncodeParams {
            pad_bit: sd.pad.bit_or_default(),
            rst_limit: sd.rst_count,
        };
        let (out, ms, _) = rec.span(ch.req, "jpeg.encode_scan", Some(ch.compress), || {
            encode_scan_whole(&sd.coefs, &p, &params)
        });
        ch.t.huffman_encode = ms;
        let same = out.as_deref() == Ok(&data[p.header_len..sd.scan_end]);
        check(ch, "re-encoded scan differs from the original", Ok(same));
    }

    // Get chain. A cached key stays cached, so read-hot reads each one
    // several times per layer: more samples of a sub-millisecond call
    // at the same cache state.
    let reads = keys.reads();
    barrier.wait();
    for ch in chains.iter_mut() {
        let (key, want) = ch.get_target(keys, seed, 0);
        for _ in 0..reads {
            let (r, ms, id) = rec.span(ch.req, "fleet.get", None, || h.gw.get(&key));
            ch.t.fleet_get += ms / reads as f64;
            ch.fleet_get = id;
            check(
                ch,
                "gateway served wrong bytes",
                r.map(|b| b.as_deref() == Some(&want[..])).map_err(drop),
            );
        }
    }
    barrier.wait();
    for ch in chains.iter_mut() {
        let (key, want) = ch.get_target(keys, seed, 1);
        let ep = h.fleet.members()[h.primary(&key)].1.clone();
        for _ in 0..reads {
            let (r, ms, id) = rec.span(ch.req, "server.block_get", Some(ch.fleet_get), || {
                client::block_get(&ep, &key, timeout())
            });
            ch.t.server_get += ms / reads as f64;
            ch.server_get = id;
            check(
                ch,
                "node served wrong bytes",
                r.map(|b| b.as_deref() == Some(&want[..])).map_err(drop),
            );
        }
    }
    barrier.wait();
    for ch in chains.iter_mut() {
        let (key, want) = ch.get_target(keys, seed, 2);
        let store = h.fleet.store(h.primary(&key));
        for _ in 0..reads {
            let (r, ms, _) = rec.span(ch.req, "storage.get", Some(ch.server_get), || {
                store.get(&key)
            });
            ch.t.storage_get += ms / reads as f64;
            check(
                ch,
                "store served wrong bytes",
                r.map(|b| b.as_deref() == Some(&want[..])).map_err(drop),
            );
        }
        ch.t.lepton_at_rest = matches!(store.format_of(&key), Ok(Some(StoredFormat::Lepton)));
    }
}

/// Mean of `f` over the samples where `keep` holds (0 if none do).
pub fn mean_where(
    samples: &[SampleTimes],
    keep: impl Fn(&SampleTimes) -> bool,
    f: impl Fn(&SampleTimes) -> f64,
) -> f64 {
    let kept: Vec<&SampleTimes> = samples.iter().filter(|s| keep(s)).collect();
    kept.iter().map(|s| f(s)).sum::<f64>() / kept.len().max(1) as f64
}

/// The layers of a chain, top first, in the order of
/// [`Attribution::self_ms`].
pub const LAYERS: [&str; 5] = ["fleet", "server", "storage", "core", "jpeg"];

/// How many standard errors below zero a self time may read before its
/// layer counts as not resolved by the peel.
const RESOLVE_Z: f64 = 2.0;

/// Per-op self times of one chain, in ms.
#[derive(Clone, Copy, Debug, Default)]
pub struct Attribution {
    /// The traced gateway op.
    pub op: f64,
    /// One node hop (the server-layer call).
    pub hop: f64,
    /// The storage-layer call.
    pub storage: f64,
    /// Node hops per gateway op.
    pub hops: f64,
    /// Self time of each of [`LAYERS`]: the fleet's per gateway op, the
    /// others per node hop.
    pub self_ms: [f64; 5],
    /// Standard error of each self time over the samples.
    pub se_ms: [f64; 5],
}

impl Attribution {
    /// Sum of the self times, with every per-hop layer counted once
    /// per hop: by construction the traced op.
    pub fn sum(&self) -> f64 {
        self.self_ms[0] + self.hops * self.self_ms[1..].iter().sum::<f64>()
    }

    /// Share of the op spent in the codec (core and jpeg layers).
    pub fn codec_share(&self) -> f64 {
        self.hops * (self.self_ms[3] + self.self_ms[4]) / self.op.max(1e-9)
    }

    /// Layers whose self time is negative beyond its noise: the peel
    /// measured them faster than the calls they make, so their self time
    /// is not a measurement of the layer.
    pub fn unresolved(&self) -> Vec<&'static str> {
        LAYERS
            .iter()
            .zip(self.self_ms.iter().zip(&self.se_ms))
            .filter(|(_, (&x, &se))| x + RESOLVE_Z * se < 0.0)
            .map(|(&name, _)| name)
            .collect()
    }
}

/// Self times of one chain from each sample's call times
/// `[op, hop, storage, codec, jpeg]` (the codec and jpeg parts as the
/// storage call pays them); `hops` node calls per gateway op. Each self
/// time is the mean of its per-sample difference, so its standard
/// error is that of paired differences.
fn attribute(
    s: &[SampleTimes],
    hops: f64,
    calls: impl Fn(&SampleTimes) -> [f64; 5],
) -> Attribution {
    let calls: Vec<[f64; 5]> = s.iter().map(calls).collect();
    let selfs: Vec<[f64; 5]> = calls
        .iter()
        .map(|c| {
            [
                c[0] - hops * c[1],
                c[1] - c[2],
                c[2] - c[3],
                c[3] - c[4],
                c[4],
            ]
        })
        .collect();
    let n = s.len().max(1) as f64;
    let mean = |rows: &[[f64; 5]], i: usize| rows.iter().map(|r| r[i]).sum::<f64>() / n;
    let self_ms = [0, 1, 2, 3, 4].map(|i| mean(&selfs, i));
    let se_ms = [0, 1, 2, 3, 4].map(|i| {
        if s.len() < 2 {
            return 0.0;
        }
        let var = selfs
            .iter()
            .map(|r| (r[i] - self_ms[i]).powi(2))
            .sum::<f64>()
            / (n - 1.0);
        (var / n).sqrt()
    });
    Attribution {
        op: mean(&calls, 0),
        hop: mean(&calls, 1),
        storage: mean(&calls, 2),
        hops,
        self_ms,
        se_ms,
    }
}

/// Self times of the get chain. `miss` is the share of store reads
/// that missed the cache, `hops` node reads per gateway get.
pub fn attribute_get(s: &[SampleTimes], miss: f64, hops: f64) -> Attribution {
    attribute(s, hops, |t| {
        let lep = if t.lepton_at_rest { miss } else { 0.0 };
        [
            t.fleet_get,
            t.server_get,
            t.storage_get,
            lep * t.decompress,
            lep * (t.parse + t.huffman_encode),
        ]
    })
}

/// Self times of the put chain; `hops` node writes per gateway put.
///
/// The store's admission gate runs `compress` with verify on (parse,
/// Huffman decode, arithmetic encode, then a full decode) and, when
/// that succeeds, its own check decode: three header parses, one scan
/// decode and two scan encodes of JPEG-stage work.
pub fn attribute_put(s: &[SampleTimes], hops: f64) -> Attribution {
    attribute(s, hops, |t| {
        let codec = if t.jpeg_like {
            t.compress_on + t.decompress
        } else {
            0.0
        };
        let jpeg = if t.jpeg_like && t.compressed {
            3.0 * t.parse + t.huffman_decode + 2.0 * t.huffman_encode
        } else {
            0.0
        };
        [t.fleet_put, t.server_put, t.storage_put, codec, jpeg]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SampleTimes {
        SampleTimes {
            fleet_get: 10.0,
            server_get: 8.0,
            storage_get: 7.0,
            decompress: 5.0,
            parse: 0.5,
            huffman_encode: 1.5,
            lepton_at_rest: true,
            fleet_put: 50.0,
            server_put: 22.0,
            storage_put: 20.0,
            compress_on: 12.0,
            compress_off: 7.0,
            huffman_decode: 2.0,
            jpeg_like: true,
            compressed: true,
            ..SampleTimes::default()
        }
    }

    #[test]
    fn self_times_add_up_to_the_traced_op() {
        let t = sample();
        let g = attribute_get(&[t], 1.0, 1.0);
        assert!((g.sum() - 10.0).abs() < 1e-9);
        assert!((g.self_ms[4] - 2.0).abs() < 1e-9 && (g.self_ms[3] - 3.0).abs() < 1e-9);
        assert!((g.codec_share() - 0.5).abs() < 1e-9);
        let cached = attribute_get(&[t], 0.0, 1.0);
        assert_eq!(cached.self_ms[3] + cached.self_ms[4], 0.0);
        let p = attribute_put(&[t], 2.0);
        assert!((p.sum() - 50.0).abs() < 1e-9);
        assert!((p.self_ms[0] - 6.0).abs() < 1e-9);
    }

    #[test]
    fn a_layer_faster_than_its_calls_is_unresolved_unless_within_noise() {
        // Storage reads 1 ms faster than the decode it runs, every time.
        let slow_decode = |d: f64| SampleTimes {
            decompress: 8.0 + d,
            ..sample()
        };
        let steady: Vec<SampleTimes> = (0..8)
            .map(|i| slow_decode(f64::from(i % 2) * 0.1))
            .collect();
        assert_eq!(
            attribute_get(&steady, 1.0, 1.0).unresolved(),
            vec!["storage"]
        );
        // The same mean shortfall with a spread of ±10 ms is noise.
        let noisy: Vec<SampleTimes> = (0..8)
            .map(|i| slow_decode(if i % 2 == 0 { -10.0 } else { 10.0 }))
            .collect();
        assert!(attribute_get(&noisy, 1.0, 1.0).unresolved().is_empty());
        assert!(attribute_get(&[sample()], 1.0, 1.0).unresolved().is_empty());
    }
}
