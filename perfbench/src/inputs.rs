//! Workload inputs, all derived from the `--seed` argument.
//!
//! Three populations, each a fixed plan of sizes and encoder settings
//! whose pixels come from the seed, so two seeds give different bytes
//! with the same size profile (the benchmark's figures then move with
//! the program, not with the draw):
//!
//! * **cold catalog** — photo-sized baseline JPEGs on a geometric size
//!   ladder of about 70–600 KB, spanning the codec's 128 KB one- to
//!   two-segment cutoff;
//! * **hot catalog** — thumbnail-sized baseline JPEGs of 1.5–4 KB;
//! * **ingest pool** — the §4 population: 60 clean baseline JPEGs of
//!   about 20–250 KB and one each of the four kinds of file the codec
//!   refuses (progressive, CMYK, not-an-image, truncated), stored raw.
//!
//! Ingest never re-sends a payload: every put is a pool image with a
//! per-op COM stamp (see [`stamp`]), so content-addressed dedup cannot
//! turn it into a no-op.

use lepton_corpus::{corrupt, synth_image, SceneKind};
use lepton_jpeg::encoder::{encode_jpeg, EncodeOptions, Image, PixelData, Subsampling};
use lepton_storage::sha256::{sha256, Digest};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What a generated block is (the §4 population classes used here).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Clean baseline JPEG: stored Lepton-compressed.
    Baseline,
    /// Progressive JPEG (refused by the codec, stored raw).
    Progressive,
    /// Four-component JPEG (refused, stored raw).
    Cmyk,
    /// Starts like a JPEG but is not one (stored raw).
    NotAnImage,
    /// Baseline JPEG cut off mid-scan (refused, stored raw).
    Truncated,
}

impl Kind {
    /// Stable lower-case label for records.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Baseline => "baseline",
            Kind::Progressive => "progressive",
            Kind::Cmyk => "cmyk",
            Kind::NotAnImage => "not_an_image",
            Kind::Truncated => "truncated",
        }
    }
}

/// One generated block and its content address.
#[derive(Clone, Debug)]
pub struct Block {
    /// The bytes a user would store.
    pub data: Vec<u8>,
    /// SHA-256 of `data`: the address the store must serve it under.
    pub key: Digest,
    /// Population class.
    pub kind: Kind,
}

impl Block {
    fn new(data: Vec<u8>, kind: Kind) -> Block {
        Block {
            key: sha256(&data),
            data,
            kind,
        }
    }
}

/// Blocks in the cold catalog.
pub const COLD_BLOCKS: usize = 16;
/// Blocks in the hot catalog.
pub const HOT_BLOCKS: usize = 64;
/// Base images in the ingest pool.
pub const INGEST_BASES: usize = 64;
/// Ladder rungs of the ingest pool that hold the files the codec
/// refuses, one of each kind (4 of 64: the §4 ~6%).
const INGEST_REJECTS: [(usize, Kind); 4] = [
    (8, Kind::Progressive),
    (24, Kind::NotAnImage),
    (40, Kind::Truncated),
    (56, Kind::Cmyk),
];

/// Approximate encoded bytes per pixel of the synthetic scenes at a
/// given quality and chroma subsampling (measured on this generator);
/// used only to aim each ladder rung at its target size.
fn bytes_per_pixel(scene: SceneKind, quality: u8, sub: Subsampling) -> f64 {
    let q = f64::from(quality.clamp(75, 95) - 75) / 20.0;
    let luma_chroma = match sub {
        Subsampling::S420 => 1.0,
        Subsampling::S422 => 4.0 / 3.0,
        Subsampling::S444 => 2.0,
    };
    luma_chroma
        * match scene {
            SceneKind::Noisy => 0.25 + q * 0.27,
            _ => 0.08 + q * 0.12,
        }
}

/// One baseline JPEG of roughly `target` bytes, 4:3, with the given
/// scene and quality; pixels come from `pixel_seed`.
fn photo(
    target: usize,
    scene: SceneKind,
    quality: u8,
    sub: Subsampling,
    pixel_seed: u64,
) -> Vec<u8> {
    let px = target as f64 / bytes_per_pixel(scene, quality, sub);
    let w = ((px * 4.0 / 3.0).sqrt() as usize / 16).max(2) * 16;
    let h = (w * 3 / 4 / 16).max(2) * 16;
    let rgb = synth_image(scene, w, h, pixel_seed);
    let img = Image {
        width: w,
        height: h,
        data: PixelData::Rgb(rgb),
    };
    let opts = EncodeOptions {
        quality,
        subsampling: sub,
        ..EncodeOptions::default()
    };
    encode_jpeg(&img, &opts).expect("synthesized images always encode")
}

/// Target size of rung `i` of `n` on a geometric ladder `lo..=hi`.
fn rung(i: usize, n: usize, lo: f64, hi: f64) -> usize {
    (lo * (hi / lo).powf(i as f64 / (n - 1) as f64)) as usize
}

/// A seed for item `i` of population `tag`, mixed from the run seed.
fn item_seed(seed: u64, tag: u64, i: usize) -> u64 {
    let mut rng = StdRng::seed_from_u64(
        seed ^ tag.rotate_left(32) ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    rng.gen()
}

/// Generate `n` items in parallel on `threads` threads, in index order.
fn generate<T: Send>(n: usize, threads: usize, make: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let chunk = n.div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        for (c, slots) in out.chunks_mut(chunk).enumerate() {
            let make = &make;
            s.spawn(move || {
                for (j, slot) in slots.iter_mut().enumerate() {
                    *slot = Some(make(c * chunk + j));
                }
            });
        }
    });
    out.into_iter()
        .map(|x| x.expect("every slot filled"))
        .collect()
}

const SCENES: [SceneKind; 2] = [SceneKind::Noisy, SceneKind::Landscape];
const QUALITIES: [u8; 4] = [85, 95, 90, 80];
const SUBSAMPLINGS: [Subsampling; 4] = [
    Subsampling::S420,
    Subsampling::S420,
    Subsampling::S422,
    Subsampling::S444,
];

/// The cold catalog: [`COLD_BLOCKS`] photos on a 70–600 KB ladder.
pub fn cold_catalog(seed: u64, threads: usize) -> Vec<Block> {
    generate(COLD_BLOCKS, threads, |i| {
        let data = photo(
            rung(i, COLD_BLOCKS, 80e3, 560e3),
            SCENES[i % 2],
            QUALITIES[i % 4],
            SUBSAMPLINGS[(i / 2) % 4],
            item_seed(seed, 1, i),
        );
        Block::new(data, Kind::Baseline)
    })
}

/// The hot catalog: [`HOT_BLOCKS`] thumbnails of 1.5–4 KB.
pub fn hot_catalog(seed: u64, threads: usize) -> Vec<Block> {
    generate(HOT_BLOCKS, threads, |i| {
        let data = photo(
            rung(i, HOT_BLOCKS, 1.5e3, 4.0e3),
            SCENES[i % 2],
            QUALITIES[i % 4],
            SUBSAMPLINGS[(i / 2) % 4],
            item_seed(seed, 2, i),
        );
        Block::new(data, Kind::Baseline)
    })
}

/// The ingest pool: [`INGEST_BASES`] images on a 20–250 KB ladder, of
/// which the [`INGEST_REJECTS`] rungs are files the codec refuses.
pub fn ingest_pool(seed: u64, threads: usize) -> Vec<Block> {
    generate(INGEST_BASES, threads, |i| {
        let pixel_seed = item_seed(seed, 3, i);
        let target = rung(i, INGEST_BASES, 20e3, 250e3);
        let clean = || {
            photo(
                target,
                SCENES[i % 2],
                QUALITIES[i % 4],
                SUBSAMPLINGS[(i / 2) % 4],
                pixel_seed,
            )
        };
        let kind = INGEST_REJECTS
            .iter()
            .find(|&&(j, _)| j == i)
            .map_or(Kind::Baseline, |&(_, k)| k);
        let data = match kind {
            Kind::Baseline => clean(),
            Kind::Progressive => corrupt::progressive_lookalike(&clean()),
            Kind::Cmyk => corrupt::cmyk_stub(pixel_seed),
            Kind::NotAnImage => corrupt::soi_prefixed_garbage(target, pixel_seed),
            Kind::Truncated => corrupt::truncate(&clean(), 0.6),
        };
        Block::new(data, kind)
    })
}

/// `base` made unique by `tag`: a COM segment right after SOI when the
/// bytes start like a JPEG (so the codec sees the same image with one
/// more header segment), otherwise the tag appended. Distinct tags give
/// distinct bytes, hence distinct content addresses.
pub fn stamp(base: &[u8], tag: &str) -> Vec<u8> {
    let text = format!("perfbench {tag}");
    let mut out = Vec::with_capacity(base.len() + text.len() + 4);
    if base.len() > 3 && base[..3] == [0xFF, 0xD8, 0xFF] {
        let len = u16::try_from(text.len() + 2).expect("short tag");
        out.extend_from_slice(&base[..2]);
        out.extend_from_slice(&[0xFF, 0xFE]);
        out.extend_from_slice(&len.to_be_bytes());
        out.extend_from_slice(text.as_bytes());
        out.extend_from_slice(&base[2..]);
    } else {
        out.extend_from_slice(base);
        out.extend_from_slice(text.as_bytes());
    }
    out
}

/// A seeded permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.gen_range(0..=i));
    }
    p
}

/// Zipf(s = 1) over `n` ranks: `sample` returns a rank, 0 the most
/// popular.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks.
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Per-client request stream seed.
pub fn client_seed(seed: u64, client: usize) -> u64 {
    item_seed(seed, 4, client)
}

/// Size histogram: counts of blocks per power-of-two KB bucket, as
/// `(bucket upper bound in KB, count)`.
pub fn size_histogram(blocks: &[Block]) -> Vec<(usize, usize)> {
    let mut hist: Vec<(usize, usize)> = Vec::new();
    for b in blocks {
        let mut ub = 1usize;
        while ub * 1024 < b.data.len() {
            ub *= 2;
        }
        match hist.iter_mut().find(|(u, _)| *u == ub) {
            Some((_, c)) => *c += 1,
            None => hist.push((ub, 1)),
        }
    }
    hist.sort_unstable();
    hist
}

/// Population mix: `(kind, count)` in a stable order.
pub fn population_mix(blocks: &[Block]) -> Vec<(Kind, usize)> {
    let mut mix: Vec<(Kind, usize)> = Vec::new();
    for b in blocks {
        match mix.iter_mut().find(|(k, _)| *k == b.kind) {
            Some((_, c)) => *c += 1,
            None => mix.push((b.kind, 1)),
        }
    }
    mix.sort_unstable();
    mix
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn a_seed_reproduces_its_inputs_and_another_seed_differs() {
        let a = hot_catalog(11, 2);
        let b = hot_catalog(11, 2);
        let c = hot_catalog(12, 2);
        assert_eq!(a.len(), HOT_BLOCKS);
        assert!(a.iter().zip(&b).all(|(x, y)| x.data == y.data));
        assert!(a.iter().zip(&c).all(|(x, y)| x.key != y.key));
        let p = ingest_pool(11, 2);
        let q = ingest_pool(11, 2);
        let r = ingest_pool(12, 2);
        assert!(p
            .iter()
            .zip(&q)
            .all(|(x, y)| x.data == y.data && x.kind == y.kind));
        assert!(p.iter().zip(&r).any(|(x, y)| x.key != y.key));
        assert_eq!(permutation(50, 3), permutation(50, 3));
        assert_ne!(permutation(50, 3), permutation(50, 4));
    }

    #[test]
    fn catalogs_have_the_planned_shape() {
        let cold = cold_catalog(5, 2);
        let sizes: Vec<usize> = cold.iter().map(|b| b.data.len()).collect();
        let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        // Every cold block is larger than a cache shard.
        let shard = crate::harness::CACHE_BYTES / crate::harness::STORE_SHARDS;
        assert!(*lo > shard && *hi < 900 << 10, "cold sizes {lo}..{hi}");
        assert!(sizes.iter().any(|&s| s < 128 << 10) && sizes.iter().any(|&s| s >= 128 << 10));
        let hot = hot_catalog(5, 2);
        assert!(hot.iter().all(|b| b.data.len() < 8 << 10));
        let pool = ingest_pool(5, 2);
        let mix = population_mix(&pool);
        let clean = mix.iter().find(|(k, _)| *k == Kind::Baseline).unwrap().1;
        assert_eq!(clean, INGEST_BASES - INGEST_REJECTS.len(), "{mix:?}");
        assert_eq!(mix.len(), 5, "every refused kind present: {mix:?}");
    }

    #[test]
    fn ingest_payloads_never_repeat() {
        let pool = ingest_pool(9, 2);
        let mut seen: HashSet<Digest> = pool.iter().map(|b| b.key).collect();
        for client in 0..2 {
            for op in 0..3 * INGEST_BASES {
                let base = &pool[op % INGEST_BASES];
                let data = stamp(&base.data, &format!("s9 c{client} op{op}"));
                assert!(seen.insert(sha256(&data)), "payload repeated");
            }
        }
    }

    #[test]
    fn stamped_jpegs_stay_jpegs() {
        let hot = hot_catalog(3, 1);
        let s = stamp(&hot[0].data, "x");
        assert_eq!(&s[..4], &[0xFF, 0xD8, 0xFF, 0xFE]);
        lepton_jpeg::parse(&s).expect("a COM segment keeps the file a baseline JPEG");
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(96);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 96];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10] && counts[10] > counts[90]);
    }
}
