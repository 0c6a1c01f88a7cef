//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <read-cold|read-hot|ingest> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Runs one closed-loop workload (2 client threads) against an
//! in-process 3-node `LocalFleet` behind a `FleetGateway` and prints,
//! as its last line, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` the run adds a layer peel (see `peel.rs`) and reports
//! the per-layer ones. The line before it is the full run record
//! (configuration, host, input profile, sample counts), also written to
//! `.bench_out/`. Any wrong byte ends the run with exit code 1 and no
//! result line.

mod harness;
mod inputs;
mod measure;
mod peel;
mod tvfs;

use harness::{Harness, NodeTotals, StoreTotals, CACHE_BYTES, CLIENTS, NODES};
use inputs::{Block, Zipf};
use lepton_bench::json::Json;
use measure::{closed_loop, median, Abort, Phase, Sample, Until};
use peel::{Attribution, GetKeys, Peel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Fleet set-ups per run, and slices of the measured window: one set-up
/// before each slice. `setup_s` is their median, and so are the read
/// workloads' put figures (measured on each set-up's catalog load), so
/// one set-up disturbed from outside does not move them.
const SETUP_REPS: usize = 5;
/// Untimed warm-up before the measured window.
const WARMUP: Duration = Duration::from_secs(3);
/// How far the traced op may be from the untraced mean op (as a share
/// of it) before the peel counts as not representative.
const SUM_TOLERANCE: f64 = 0.25;
/// Host CPU steal (share of all host CPU time in the timed window)
/// above which a run is marked as not comparable with others.
const STEAL_LIMIT: f64 = 0.05;
/// Where runs leave their records, spans and (while running) fleet data.
const OUT_DIR: &str = ".bench_out";

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("get_p50_ms", "ms"),
    ("get_p99_ms", "ms"),
    ("gets_per_s", "1/s"),
    ("read_mbps", "MB/s"),
    ("put_p50_ms", "ms"),
    ("put_p95_ms", "ms"),
    ("puts_per_s", "1/s"),
    ("ingest_mbps", "MB/s"),
    ("stored_ratio", "ratio"),
    ("cpu_ms_per_mb", "ms/MB"),
    ("peak_heap_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 46] = [
    ("fleet.get_ms", "ms"),
    ("fleet.put_ms", "ms"),
    ("fleet.self_ms", "ms"),
    ("fleet.hops_per_get", "count"),
    ("fleet.hops_per_put", "count"),
    ("fleet.failovers", "count"),
    ("fleet.partial_writes", "count"),
    ("server.hop_ms", "ms"),
    ("server.self_ms", "ms"),
    ("server.connects_per_op", "count"),
    ("server.shed", "count"),
    ("server.failed", "count"),
    ("storage.get_ms", "ms"),
    ("storage.put_ms", "ms"),
    ("storage.self_get_ms", "ms"),
    ("storage.self_put_ms", "ms"),
    ("storage.cache_hit_ratio", "ratio"),
    ("storage.raw_ratio", "ratio"),
    ("storage.roundtrip_failures", "count"),
    ("storage.dedup_hits", "count"),
    ("storage.fsyncs_per_put", "count"),
    ("storage.sync_ms_per_put", "ms"),
    ("storage.write_amp", "ratio"),
    ("core.decompress_ms", "ms"),
    ("core.compress_ms", "ms"),
    ("core.verify_ms", "ms"),
    ("core.self_ms", "ms"),
    ("core.codec_share", "ratio"),
    ("core.segments_per_op", "count"),
    ("core.engine.busy_ms_per_op", "ms"),
    ("core.engine.inline_ratio", "ratio"),
    ("core.engine.jobs_per_op", "count"),
    ("jpeg.parse_ms", "ms"),
    ("jpeg.huffman_decode_ms", "ms"),
    ("jpeg.huffman_encode_ms", "ms"),
    ("jpeg.self_ms", "ms"),
    ("model.scan_ratio", "ratio"),
    ("model.header_ratio", "ratio"),
    ("trace.untraced_ms", "ms"),
    ("trace.traced_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.get_error", "ratio"),
    ("trace.put_error", "ratio"),
    ("trace.spans", "count"),
    ("trace.unresolved_layers", "count"),
    ("fail_ratio", "ratio"),
];

/// Every allocation in the process (the whole fleet runs in it) goes
/// through this counter, so `peak_heap_mb` is the peak live heap,
/// independent of how the system allocator caches memory. The
/// benchmark's own per-op records are allocated up front and taken out
/// of the figure.
#[global_allocator]
static ALLOC: lepton_bench::TrackingAlloc = lepton_bench::TrackingAlloc::new();

const USAGE: &str = "usage: perfbench --workload <read-cold|read-hot|ingest> --seed N \
--seconds S --trace <0|1> [--corrupt-get N] | perfbench --list-metrics";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    ReadCold,
    ReadHot,
    Ingest,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "read-cold" => Some(Workload::ReadCold),
            "read-hot" => Some(Workload::ReadHot),
            "ingest" => Some(Workload::Ingest),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ReadCold => "read-cold",
            Workload::ReadHot => "read-hot",
            Workload::Ingest => "ingest",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Test hook: flip one byte of the N-th block the gateway serves,
    /// before the benchmark checks it.
    corrupt_get: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut corrupt_get = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--corrupt-get" => {
                corrupt_get = Some(
                    value()?
                        .parse::<usize>()
                        .map_err(|e| format!("--corrupt-get: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        corrupt_get,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--list-metrics") {
        for (name, unit) in END_TO_END {
            println!("end_to_end {name} {unit}");
        }
        for (name, unit) in PER_LAYER {
            println!("per_layer {name} {unit}");
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(result) => println!("{result}"),
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            std::process::exit(1);
        }
    }
}

/// Counters of one phase, as deltas.
#[derive(Clone, Copy, Default)]
struct Deltas {
    stores: StoreTotals,
    nodes: NodeTotals,
    io: tvfs::IoSnapshot,
}

impl Deltas {
    /// Field-wise sum (counters of consecutive phases).
    fn plus(self, o: Deltas) -> Deltas {
        Deltas {
            stores: self.stores.plus(o.stores),
            nodes: self.nodes.plus(o.nodes),
            io: self.io.plus(o.io),
        }
    }
}

/// Run `f` and return what it did to the fleet's counters.
fn counted<T>(h: &Harness, f: impl FnOnce() -> T) -> (T, Deltas) {
    let (s0, n0, i0) = (h.stores(), h.nodes(), h.io());
    let out = f();
    let d = Deltas {
        stores: h.stores().since(s0),
        nodes: h.nodes().since(n0),
        io: h.io().since(i0),
    };
    (out, d)
}

/// The benchmark's side of the wire: issue requests, check every answer.
struct Client<'a> {
    h: &'a Harness,
    abort: &'a Abort,
    seed: u64,
    gets: AtomicUsize,
    corrupt_get: Option<usize>,
}

impl Client<'_> {
    /// Gateway get of `key`, which must come back as exactly `want`.
    fn get(&self, key: &[u8; 32], want: &[u8]) -> Sample {
        let (r, secs) = lepton_bench::timed(|| self.h.gw.get(key));
        let ms = secs * 1e3;
        match r {
            Ok(Some(mut bytes)) => {
                let n = self.gets.fetch_add(1, Ordering::SeqCst);
                if self.corrupt_get == Some(n) && !bytes.is_empty() {
                    let mid = bytes.len() / 2;
                    bytes[mid] ^= 0x01;
                }
                if bytes != want {
                    self.abort.fail(format!(
                        "gateway served wrong bytes for {}",
                        lepton_storage::blockstore::hex(key)
                    ));
                    return Sample::failed(ms);
                }
                Sample::ok(bytes.len(), ms)
            }
            Ok(None) => {
                self.abort.fail(format!(
                    "acknowledged block {} is missing",
                    lepton_storage::blockstore::hex(key)
                ));
                Sample::failed(ms)
            }
            Err(_) => Sample::failed(ms),
        }
    }

    /// Gateway put of `data`, whose ack must be its SHA-256.
    fn put(&self, data: &[u8], key: &[u8; 32]) -> Sample {
        let (r, secs) = lepton_bench::timed(|| self.h.gw.put(data));
        let ms = secs * 1e3;
        match r {
            Ok(acked) if acked == *key => Sample::ok(data.len(), ms),
            Ok(_) => {
                self.abort
                    .fail("gateway put acked a different address".into());
                Sample::failed(ms)
            }
            Err(_) => Sample::failed(ms),
        }
    }

    /// An RNG for client `c`'s `n`-th request of phase `phase`.
    fn rng(&self, phase: u64, c: usize, n: usize) -> StdRng {
        StdRng::seed_from_u64(
            inputs::client_seed(self.seed, c)
                ^ phase.rotate_left(48)
                ^ (n as u64).wrapping_mul(0x2545_F491_4F6C_DD1D),
        )
    }
}

/// An ingest put that succeeded: enough to regenerate and re-read it.
struct Ingested {
    key: [u8; 32],
    base: usize,
    tag: String,
}

fn run(args: &Args) -> Result<Json, String> {
    let io_err = |what: &str| {
        let what = what.to_string();
        move |e: std::io::Error| format!("{what}: {e}")
    };
    std::fs::create_dir_all(OUT_DIR).map_err(io_err("creating the output directory"))?;
    let fleet_dir = Path::new(OUT_DIR).join(format!("fleet-{}", std::process::id()));
    let abort = Abort::default();
    let w = args.workload;

    // Inputs, all from the seed.
    let (blocks, gen_s) = lepton_bench::timed(|| match w {
        Workload::ReadCold => inputs::cold_catalog(args.seed, CLIENTS),
        Workload::ReadHot => inputs::hot_catalog(args.seed, CLIENTS),
        Workload::Ingest => inputs::ingest_pool(args.seed, CLIENTS),
    });
    // What the fleet holds before the workload starts: the read
    // workloads' own catalog; ingest starts from a store that already
    // holds a thumbnail catalog, so every workload's set-up is a spawn
    // plus a load.
    let resident;
    let catalog: &[Block] = if w == Workload::Ingest {
        resident = inputs::hot_catalog(args.seed ^ 0x5E7, CLIENTS);
        &resident
    } else {
        &blocks
    };

    // Set-up: spawn a fleet and load the catalog through the gateway.
    // The first set-up's fleet serves the run; the others run on fleets
    // of their own between slices of the measured window (see below).
    // Largest blocks first, so the two clients' concurrent puts pair
    // blocks of similar size on every run.
    let mut largest_first: Vec<usize> = (0..catalog.len()).collect();
    largest_first.sort_by_key(|&i| std::cmp::Reverse(catalog[i].data.len()));
    let set_up = |dir: &Path| -> Result<(Harness, f64, Phase, Deltas), String> {
        let t0 = Instant::now();
        let h = Harness::spawn(dir).map_err(io_err("spawning the fleet"))?;
        let client = Client {
            h: &h,
            abort: &abort,
            seed: args.seed,
            gets: AtomicUsize::new(0),
            corrupt_get: None,
        };
        let (phase, d) = counted(&h, || {
            closed_loop(CLIENTS, 0, Until::Items(catalog.len()), &abort, |_, i| {
                let b = &catalog[largest_first[i]];
                client.put(&b.data, &b.key)
            })
        });
        Ok((h, t0.elapsed().as_secs_f64(), phase, d))
    };
    let (h, first_s, first_load, mut load_deltas) = set_up(&fleet_dir)?;
    let mut setup_secs = vec![first_s];
    let mut load_reps: Vec<Phase> = Vec::with_capacity(SETUP_REPS);
    load_reps.push(first_load);
    let client = Client {
        h: &h,
        abort: &abort,
        seed: args.seed,
        gets: AtomicUsize::new(0),
        corrupt_get: args.corrupt_get,
    };

    // The workload's operation. Phase ids keep warm-up, timed and peel
    // requests on separate seeded streams (and ingest stamps distinct).
    let zipf = Zipf::new(catalog.len().max(1));
    // Zipf rank → hot block: a fixed scatter over the size ladder, so
    // the byte mix of the popular keys is the same for every seed.
    let hot_rank = inputs::permutation(catalog.len(), 0x2173);
    // Ingest pool order: also a fixed scatter over the size ladder, so
    // every seed puts the same sequence of sizes (the seed changes the
    // pixels).
    let pool_order = inputs::permutation(blocks.len(), 0x1A6E);
    let ingested: Mutex<Vec<Ingested>> = Mutex::default();
    let op = |phase: u64, record: bool| {
        let (client, zipf, hot_rank, pool_order, blocks, ingested) =
            (&client, &zipf, &hot_rank, &pool_order, &blocks, &ingested);
        move |c: usize, n: usize| -> Sample {
            match w {
                Workload::ReadHot => {
                    let i = hot_rank[zipf.sample(&mut client.rng(phase, c, n))];
                    client.get(&blocks[i].key, &blocks[i].data)
                }
                Workload::ReadCold => {
                    // Uniform keys in shuffled rounds: each client reads
                    // every block once per round, so the size mix of a
                    // window does not depend on the draw.
                    let len = blocks.len();
                    let round: u64 = client.rng(phase, c, n / len).gen();
                    let i = inputs::permutation(len, round)[n % len];
                    client.get(&blocks[i].key, &blocks[i].data)
                }
                Workload::Ingest => {
                    let base = pool_order[(n * CLIENTS + c) % blocks.len()];
                    let tag = format!("s{} p{phase} c{c} n{n}", client.seed);
                    let data = inputs::stamp(&blocks[base].data, &tag);
                    let key = lepton_storage::sha256::sha256(&data);
                    let s = client.put(&data, &key);
                    if s.ok && record {
                        ingested
                            .lock()
                            .expect("ingest log")
                            .push(Ingested { key, base, tag });
                    }
                    s
                }
            }
        }
    };

    // Warm-up: every hot key once (so the cache holds the catalog),
    // then the workload itself, untimed.
    let prime = if w == Workload::ReadHot {
        closed_loop(CLIENTS, 0, Until::Items(catalog.len()), &abort, |_, i| {
            client.get(&catalog[i].key, &catalog[i].data)
        })
    } else {
        Phase::default()
    };
    let warm = closed_loop(CLIENTS, 0, Until::Elapsed(WARMUP), &abort, op(1, false));

    // The measured window, in `SETUP_REPS` slices with one of the other
    // set-ups before each slice but the first: the set-ups then sample
    // the host across the whole run, not only its first seconds, so a
    // burst of load from outside the program (the fsync-bound puts feel
    // the host's disk as well as its CPU) moves one of the five rather
    // than all of them. Only the slices are measured. Each client's records are
    // sized for twice the warm-up rate (so they do not grow) and
    // allocated at the start of each slice; their bytes are taken out of
    // the peak heap, which then does not depend on how many operations
    // the window holds.
    let slice = Duration::from_secs_f64(args.seconds / SETUP_REPS as f64);
    let capacity = (2.0 * warm.len() as f64 / warm.secs.max(1e-9) / CLIENTS as f64
        * slice.as_secs_f64()) as usize
        + 1024;
    let slice_records = CLIENTS * capacity * std::mem::size_of::<Sample>();
    let log_capacity = if w == Workload::Ingest {
        SETUP_REPS * CLIENTS * capacity
    } else {
        0
    };
    ingested.lock().expect("ingest log").reserve(log_capacity);
    let spare_dir = Path::new(OUT_DIR).join(format!("fleet-{}-setup", std::process::id()));
    let engine = lepton_core::Engine::global().metrics();
    let engine_counts = || {
        (
            engine.busy_us.get(),
            engine.jobs_completed.get(),
            engine.inline_jobs.get(),
        )
    };
    let mut slices: Vec<Phase> = Vec::with_capacity(SETUP_REPS);
    let mut timed_deltas = Deltas::default();
    let mut cpu_s = 0.0;
    let mut host = (0u64, 0u64);
    let mut eng = (0u64, 0u64, 0u64);
    let mut peak_heap = 0usize;
    for k in 0..SETUP_REPS {
        if k > 0 {
            let (spare, secs, load, d) = set_up(&spare_dir)?;
            spare.shutdown().map_err(io_err("tearing down a fleet"))?;
            setup_secs.push(secs);
            load_reps.push(load);
            load_deltas = load_deltas.plus(d);
        }
        let eng0 = engine_counts();
        let cpu0 = measure::cpu_secs();
        let host0 = measure::host_ticks();
        ALLOC.reset_peak();
        let (phase, d) = counted(&h, || {
            closed_loop(
                CLIENTS,
                capacity,
                Until::Elapsed(slice),
                &abort,
                op(2 + k as u64, true),
            )
        });
        // The records of this slice and of the slices before it are live.
        peak_heap = peak_heap.max(ALLOC.peak().saturating_sub((k + 1) * slice_records));
        cpu_s += measure::cpu_secs() - cpu0;
        let (host1, eng1) = (measure::host_ticks(), engine_counts());
        host.0 += host1.0.saturating_sub(host0.0);
        host.1 += host1.1.saturating_sub(host0.1);
        eng.0 += eng1.0 - eng0.0;
        eng.1 += eng1.1 - eng0.1;
        eng.2 += eng1.2 - eng0.2;
        timed_deltas = timed_deltas.plus(d);
        slices.push(phase);
    }
    let records = SETUP_REPS * slice_records;
    let steal = ratio_or_0(host.0 as f64, host.1 as f64);
    let records_grew = slices
        .iter()
        .flat_map(|p| &p.per_client)
        .any(|v| v.len() > capacity);
    let mut timed_phase = Phase::default();
    for p in &slices {
        timed_phase.absorb(p);
    }
    let mut load = Phase::default();
    for p in &load_reps {
        load.absorb(p);
    }
    if records_grew {
        eprintln!("perfbench: warning: the window outran its sample records; peak_heap_mb includes their growth");
    }
    if steal > STEAL_LIMIT {
        eprintln!(
            "perfbench: warning: host CPU steal was {:.1}% of the timed window (limit {:.0}%): this run is not comparable",
            100.0 * steal,
            100.0 * STEAL_LIMIT
        );
    }

    // Ingest: read back every block the window acknowledged, twice,
    // largest first (as the catalog load puts).
    let mut ingested = ingested.into_inner().expect("ingest log");
    ingested.sort_by(|x, y| {
        (blocks[y.base].data.len(), &y.tag).cmp(&(blocks[x.base].data.len(), &x.tag))
    });
    let (readback, readback_deltas) = counted(&h, || {
        closed_loop(
            CLIENTS,
            0,
            Until::Items(2 * ingested.len()),
            &abort,
            |_, i| {
                let b = &ingested[i % ingested.len()];
                let want = inputs::stamp(&blocks[b.base].data, &b.tag);
                client.get(&b.key, &want)
            },
        )
    });

    // The traced layer peel.
    let peel = if args.trace {
        // Reads peel every block twice, once on each client (the seeded
        // order, then the same order reversed); ingest peels the pool
        // once. Read-hot draws its keys from the zipf like the timed
        // loop.
        let bases: Vec<&Block> = match w {
            Workload::ReadHot => {
                let mut rng = StdRng::seed_from_u64(args.seed ^ 0x9EE1);
                (0..2 * blocks.len())
                    .map(|_| &blocks[hot_rank[zipf.sample(&mut rng)]])
                    .collect()
            }
            Workload::ReadCold => pool_order
                .iter()
                .chain(pool_order.iter().rev())
                .map(|&i| &blocks[i])
                .collect(),
            Workload::Ingest => pool_order.iter().map(|&i| &blocks[i]).collect(),
        };
        let keys = if w == Workload::ReadHot {
            GetKeys::Catalog
        } else {
            GetKeys::Fresh
        };
        Some(peel::run(&h, &bases, keys, args.seed, &abort))
    } else {
        None
    };

    if let Some(why) = abort.reason() {
        let _ = h.shutdown();
        return Err(why);
    }

    // Which phase feeds which figures: reads time gets in the window and
    // puts in the catalog load; ingest times puts in the window and gets
    // in the read-back.
    let (get_phase, get_deltas, put_phase, put_deltas) = match w {
        Workload::Ingest => (&readback, readback_deltas, &timed_phase, timed_deltas),
        _ => (&timed_phase, timed_deltas, &load, load_deltas),
    };
    let timeout_ms = harness::fleet_config().timeout.as_secs_f64() * 1e3;
    // Every operation the benchmark issued, the peel's puts and gets
    // included.
    let phases = [&load, &prime, &warm, &timed_phase, &readback];
    let attempted =
        phases.iter().map(|p| p.len()).sum::<usize>() + peel.as_ref().map_or(0, |p| p.calls);
    let failed = phases.iter().map(|p| p.failed()).sum::<usize>()
        + peel
            .as_ref()
            .map_or(0, |p| p.samples.iter().map(|s| s.failures as usize).sum());
    let ratio = ratio_or_0;
    // A put figure: ingest's timed window, or the median over the read
    // workloads' set-up loads.
    let put_median = |f: &dyn Fn(&Phase) -> f64| match w {
        Workload::Ingest => f(&timed_phase),
        _ => median(&load_reps.iter().map(f).collect::<Vec<_>>()),
    };

    let e2e: Vec<(&str, f64)> = vec![
        ("setup_s", median(&setup_secs)),
        ("get_p50_ms", get_phase.percentile_ms(50.0, timeout_ms)),
        ("get_p99_ms", get_phase.percentile_ms(99.0, timeout_ms)),
        ("gets_per_s", get_phase.ops_per_s()),
        ("read_mbps", get_phase.mb_per_s()),
        (
            "put_p50_ms",
            put_median(&|p| p.percentile_ms(50.0, timeout_ms)),
        ),
        (
            "put_p95_ms",
            put_median(&|p| p.percentile_ms(95.0, timeout_ms)),
        ),
        ("puts_per_s", put_median(&|p| p.ops_per_s())),
        ("ingest_mbps", put_median(&|p| p.mb_per_s())),
        (
            "stored_ratio",
            ratio(
                put_deltas.stores.bytes_stored as f64,
                put_deltas.stores.bytes_in as f64,
            ),
        ),
        (
            "cpu_ms_per_mb",
            ratio(cpu_s * 1e3, timed_phase.bytes() as f64 / 1e6),
        ),
        ("peak_heap_mb", peak_heap as f64 / 1e6),
    ];

    let mut layers: Vec<(&str, f64)> = Vec::new();
    let mut trace_info = Json::Null;
    if let Some(p) = &peel {
        let hops_get = ratio(get_deltas.nodes.block_gets as f64, get_phase.len() as f64);
        let hops_put = ratio(put_deltas.nodes.block_puts as f64, put_phase.len() as f64);
        let miss = ratio(
            p.cache_misses as f64,
            (p.cache_hits + p.cache_misses) as f64,
        );
        let g = peel::attribute_get(&p.samples, miss, hops_get);
        let pu = peel::attribute_put(&p.samples, hops_put);
        // The workload's own operation, against the timed window.
        let primary = if w == Workload::Ingest { pu } else { g };
        let untraced = timed_phase.mean_ms();
        let err = |a: &Attribution, untraced: f64| ratio((a.sum() - untraced).abs(), untraced);
        let ok = |s: &peel::SampleTimes| s.compressed;
        let s = &p.samples;
        let sum_where = |f: &dyn Fn(&peel::SampleTimes) -> u64| {
            s.iter().filter(|t| ok(t)).map(f).sum::<u64>() as f64
        };
        let ops = timed_phase.len() as f64;
        let gw = &h.gw.metrics;
        let nodes = h.nodes();
        layers = vec![
            ("fleet.get_ms", g.op),
            ("fleet.put_ms", pu.op),
            ("fleet.self_ms", primary.self_ms[0]),
            ("fleet.hops_per_get", hops_get),
            ("fleet.hops_per_put", hops_put),
            ("fleet.failovers", gw.failovers.get() as f64),
            ("fleet.partial_writes", gw.partial_writes.get() as f64),
            ("server.hop_ms", primary.hop),
            ("server.self_ms", primary.self_ms[1]),
            (
                "server.connects_per_op",
                ratio(timed_deltas.nodes.connections as f64, ops),
            ),
            ("server.shed", nodes.shed as f64),
            ("server.failed", nodes.failed as f64),
            ("storage.get_ms", g.storage),
            ("storage.put_ms", pu.storage),
            ("storage.self_get_ms", g.self_ms[2]),
            ("storage.self_put_ms", pu.self_ms[2]),
            (
                "storage.cache_hit_ratio",
                ratio(
                    get_deltas.stores.cache_hits as f64,
                    (get_deltas.stores.cache_hits + get_deltas.stores.cache_misses) as f64,
                ),
            ),
            (
                "storage.raw_ratio",
                ratio(
                    put_deltas.stores.raw_blocks as f64,
                    put_deltas.stores.writes() as f64,
                ),
            ),
            (
                "storage.roundtrip_failures",
                h.stores().roundtrip_failures as f64,
            ),
            (
                "storage.dedup_hits",
                put_deltas
                    .nodes
                    .block_puts
                    .saturating_sub(put_deltas.stores.writes()) as f64,
            ),
            (
                "storage.fsyncs_per_put",
                ratio(put_deltas.io.fsyncs as f64, put_phase.len() as f64),
            ),
            (
                "storage.sync_ms_per_put",
                ratio(put_deltas.io.sync_ns as f64 / 1e6, put_phase.len() as f64),
            ),
            (
                "storage.write_amp",
                ratio(put_deltas.io.bytes_written as f64, put_phase.bytes() as f64),
            ),
            (
                "core.decompress_ms",
                peel::mean_where(s, ok, |t| t.decompress),
            ),
            (
                "core.compress_ms",
                peel::mean_where(s, ok, |t| t.compress_off),
            ),
            (
                "core.verify_ms",
                peel::mean_where(s, ok, |t| t.compress_on - t.compress_off),
            ),
            ("core.self_ms", primary.self_ms[3]),
            ("core.codec_share", primary.codec_share()),
            (
                "core.segments_per_op",
                peel::mean_where(s, ok, |t| f64::from(t.segments)),
            ),
            ("core.engine.busy_ms_per_op", ratio(eng.0 as f64 / 1e3, ops)),
            (
                "core.engine.inline_ratio",
                ratio(eng.2 as f64, (eng.1 + eng.2) as f64),
            ),
            (
                "core.engine.jobs_per_op",
                ratio((eng.1 + eng.2) as f64, ops),
            ),
            ("jpeg.parse_ms", peel::mean_where(s, ok, |t| t.parse)),
            (
                "jpeg.huffman_decode_ms",
                peel::mean_where(s, ok, |t| t.huffman_decode),
            ),
            (
                "jpeg.huffman_encode_ms",
                peel::mean_where(s, ok, |t| t.huffman_encode),
            ),
            ("jpeg.self_ms", primary.self_ms[4]),
            (
                "model.scan_ratio",
                ratio(sum_where(&|t| t.scan_out), sum_where(&|t| t.scan_in)),
            ),
            (
                "model.header_ratio",
                ratio(sum_where(&|t| t.header_out), sum_where(&|t| t.header_in)),
            ),
            ("trace.untraced_ms", untraced),
            ("trace.traced_ms", primary.sum()),
            ("trace.overhead_ms", primary.sum() - untraced),
            ("trace.get_error", err(&g, get_phase.mean_ms())),
            ("trace.put_error", err(&pu, put_phase.mean_ms())),
            ("trace.spans", p.spans.len() as f64),
            (
                "trace.unresolved_layers",
                (g.unresolved().len() + pu.unresolved().len()) as f64,
            ),
            ("fail_ratio", ratio(failed as f64, attempted as f64)),
        ];
        // The self times sum to the traced op by construction; what is
        // checked is the traced op against the untraced one, and that no
        // layer reads faster than the calls it makes.
        let op_within = err(&primary, untraced) <= SUM_TOLERANCE;
        if !op_within {
            eprintln!(
                "perfbench: warning: the traced op took {:.3} ms, {:.1}% from the untraced {:.3} ms (tolerance {:.0}%)",
                primary.op,
                100.0 * err(&primary, untraced),
                untraced,
                100.0 * SUM_TOLERANCE
            );
        }
        for (chain, a) in [("get", &g), ("put", &pu)] {
            for layer in a.unresolved() {
                eprintln!(
                    "perfbench: warning: the {chain} chain's {layer} self time is negative beyond twice its standard error: the peel did not resolve it"
                );
            }
        }
        let spans_file =
            Path::new(OUT_DIR).join(format!("spans-{}-s{}.jsonl", w.name(), args.seed));
        write_spans(&spans_file, p).map_err(io_err("writing spans"))?;
        trace_info = Json::obj([
            ("spans_file", Json::from(spans_file.display().to_string())),
            ("samples", Json::from(p.samples.len())),
            ("tolerance", Json::from(SUM_TOLERANCE)),
            ("op_within_tolerance", Json::from(op_within)),
            ("get_chain", attribution_json(&g)),
            ("put_chain", attribution_json(&pu)),
        ]);
    }

    let record = run_record(
        args,
        &h,
        &blocks,
        catalog,
        Json::obj([
            ("secs", Json::arr(setup_secs.iter().copied())),
            (
                "put_p95_ms",
                Json::arr(load_reps.iter().map(|p| p.percentile_ms(95.0, timeout_ms))),
            ),
        ]),
        gen_s,
        Json::obj([
            ("share", Json::from(steal)),
            ("limit", Json::from(STEAL_LIMIT)),
            ("comparable", Json::from(steal <= STEAL_LIMIT)),
        ]),
        Json::obj([
            ("sample_records_bytes", Json::from(records)),
            ("sample_records_grew", Json::from(records_grew)),
        ]),
        [
            ("get", get_phase),
            ("put", put_phase),
            ("timed", &timed_phase),
        ],
        &e2e,
        &layers,
        trace_info,
    );
    println!("{record}");
    let record_file = PathBuf::from(OUT_DIR).join(format!(
        "record-{}-s{}-t{}.json",
        w.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&record_file, format!("{record}\n")).map_err(io_err("writing the record"))?;
    h.shutdown().map_err(io_err("tearing down the fleet"))?;

    let (units, values) = if args.trace {
        (&PER_LAYER[..], &layers)
    } else {
        (&END_TO_END[..], &e2e)
    };
    assert_eq!(units.len(), values.len(), "every metric reported");
    let metrics = units
        .iter()
        .zip(values)
        .map(|(&(name, unit), &(vname, v))| {
            assert_eq!(name, vname, "metrics in declaration order");
            (
                name,
                Json::obj([("value", Json::from(v)), ("unit", Json::from(unit))]),
            )
        })
        .collect::<Vec<_>>();
    Ok(Json::obj([
        ("correct", Json::from(true)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", Json::obj(metrics)),
    ]))
}

/// `a / b`, or 0 when `b` is 0.
fn ratio_or_0(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn attribution_json(a: &Attribution) -> Json {
    let layers = peel::LAYERS.iter().enumerate().map(|(i, &name)| {
        (
            name,
            Json::obj([
                ("self_ms", Json::from(a.self_ms[i])),
                ("se_ms", Json::from(a.se_ms[i])),
            ]),
        )
    });
    Json::obj([
        ("op_ms", Json::from(a.op)),
        ("hops", Json::from(a.hops)),
        ("layers", Json::obj(layers)),
        ("sum_ms", Json::from(a.sum())),
        ("unresolved", Json::arr(a.unresolved())),
    ])
}

fn write_spans(path: &Path, p: &Peel) -> std::io::Result<()> {
    let mut out = String::new();
    for s in &p.spans {
        let j = Json::obj([
            ("id", Json::from(s.id)),
            ("parent", s.parent.map_or(Json::Null, Json::from)),
            ("request", Json::from(s.request)),
            ("name", Json::from(s.name)),
            ("start_ns", Json::from(s.start_ns)),
            ("end_ns", Json::from(s.end_ns)),
        ]);
        out.push_str(&format!("{j}\n"));
    }
    std::fs::write(path, out)
}

/// Everything needed to interpret (and refuse to compare) a run. The
/// record closes with `host_cores` and `simd_dispatch`
/// ([`lepton_bench::json::record`]).
#[allow(clippy::too_many_arguments)]
fn run_record(
    args: &Args,
    h: &Harness,
    blocks: &[Block],
    catalog: &[Block],
    setups: Json,
    gen_s: f64,
    host_steal: Json,
    sample_records: Json,
    phases: [(&str, &Phase); 3],
    e2e: &[(&str, f64)],
    layers: &[(&str, f64)],
    trace: Json,
) -> Json {
    // Catalog bytes each node holds (every replica), against its cache.
    let mut per_node = [0u64; NODES];
    for b in catalog {
        for n in h.gw.replica_set(&b.key) {
            per_node[n] += b.data.len() as u64;
        }
    }
    let hist = inputs::size_histogram(blocks)
        .into_iter()
        .map(|(kb, n)| Json::arr([kb, n]));
    let mix = inputs::population_mix(blocks)
        .into_iter()
        .map(|(k, n)| (k.label(), Json::from(n)));
    let samples = phases.iter().map(|(name, p)| {
        (
            *name,
            Json::obj([
                ("ops", Json::from(p.len())),
                ("failed", Json::from(p.failed())),
                ("secs", Json::from(p.secs)),
            ]),
        )
    });
    let values = |v: &[(&str, f64)]| Json::obj(v.iter().map(|&(n, x)| (n, x)));
    lepton_bench::json::record(
        "perfbench",
        [
            ("workload", Json::from(args.workload.name())),
            ("seed", Json::from(args.seed)),
            ("seconds", Json::from(args.seconds)),
            ("trace", Json::from(args.trace)),
            ("clients", Json::from(CLIENTS)),
            ("loop", Json::from("closed")),
            ("nodes", Json::from(NODES)),
            (
                "store_config",
                Json::from(format!("{:?}", harness::store_config())),
            ),
            (
                "fleet_config",
                Json::from(format!("{:?}", harness::fleet_config())),
            ),
            (
                "flush_policy",
                Json::from("per record: write tmp, fsync file, rename, fsync shard dir (RealVfs)"),
            ),
            ("host_steal", host_steal),
            ("setup_reps", setups),
            ("generate_s", Json::from(gen_s)),
            (
                "inputs",
                Json::obj([
                    ("blocks", Json::from(blocks.len())),
                    (
                        "bytes",
                        Json::from(blocks.iter().map(|b| b.data.len()).sum::<usize>()),
                    ),
                    ("size_histogram_kb", Json::arr(hist)),
                    ("population_mix", Json::obj(mix)),
                    ("resident_blocks", Json::from(catalog.len())),
                    ("cache_bytes_per_node", Json::from(CACHE_BYTES)),
                    ("catalog_bytes_per_node", Json::arr(per_node)),
                ]),
            ),
            ("samples", Json::obj(samples)),
            ("sample_records", sample_records),
            ("end_to_end", values(e2e)),
            ("per_layer", values(layers)),
            ("trace_info", trace),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv("--workload read-hot --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, Workload::ReadHot);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload ingest --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload ingest --seconds 1 --trace 0")).is_err());
    }
}
