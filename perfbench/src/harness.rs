//! The system under test: a 3-node in-process `LocalFleet` (real TCP,
//! real disk through a timing `Vfs`) behind one `FleetGateway`, with
//! the configuration every workload shares.

use crate::tvfs::{IoSnapshot, TimingVfs};
use lepton_fleet::{FleetConfig, FleetGateway, LocalFleet};
use lepton_server::ServiceConfig;
use lepton_storage::blockstore::StoreConfig;
use lepton_storage::sha256::Digest;
use lepton_storage::vfs::Vfs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Fleet size.
pub const NODES: usize = 3;
/// Closed-loop client threads.
pub const CLIENTS: usize = 2;
/// Decoded-block cache per node, split evenly over [`STORE_SHARDS`]
/// shards of 64 KiB. The cold catalog is more than 4× the cache on
/// every node, and no cold block (all above 64 KiB) fits a shard, so
/// none is ever cached.
pub const CACHE_BYTES: usize = 256 << 10;
/// Store shards per node. Fewer than the default 16, so that a shard
/// holds 64 KiB: a node's share of the hot catalog (~100 KB) then fits
/// in every shard (the fullest of 200 seeds put 51 KB in one). With 16
/// shards of 16 KiB (where a block lands is a hash of its bytes), one
/// shard overflowed and thrashed for two seeds in five, so read-hot
/// missed the cache for some seeds and not for others.
pub const STORE_SHARDS: usize = 4;

/// The store configuration every workload uses.
pub fn store_config() -> StoreConfig {
    StoreConfig {
        shards: STORE_SHARDS,
        cache_bytes: CACHE_BYTES,
        ..StoreConfig::default()
    }
}

/// The gateway configuration every workload uses: the defaults (R=2,
/// serial reads, no hedging).
pub fn fleet_config() -> FleetConfig {
    FleetConfig::default()
}

/// The node service configuration every workload uses.
pub fn service_config() -> ServiceConfig {
    ServiceConfig::default()
}

/// Sums over every node of the store counters the report reads.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreTotals {
    /// Reads served from the decoded-block cache.
    pub cache_hits: u64,
    /// Reads that went to disk.
    pub cache_misses: u64,
    /// Blocks written Lepton-compressed.
    pub lepton_blocks: u64,
    /// Blocks written raw.
    pub raw_blocks: u64,
    /// User bytes written.
    pub bytes_in: u64,
    /// Payload bytes at rest for those writes.
    pub bytes_stored: u64,
    /// Admission round trips that failed.
    pub roundtrip_failures: u64,
}

impl StoreTotals {
    /// Field-wise `self - earlier`.
    pub fn since(self, e: StoreTotals) -> StoreTotals {
        StoreTotals {
            cache_hits: self.cache_hits - e.cache_hits,
            cache_misses: self.cache_misses - e.cache_misses,
            lepton_blocks: self.lepton_blocks - e.lepton_blocks,
            raw_blocks: self.raw_blocks - e.raw_blocks,
            bytes_in: self.bytes_in - e.bytes_in,
            bytes_stored: self.bytes_stored - e.bytes_stored,
            roundtrip_failures: self.roundtrip_failures - e.roundtrip_failures,
        }
    }

    /// Field-wise sum.
    pub fn plus(self, o: StoreTotals) -> StoreTotals {
        StoreTotals {
            cache_hits: self.cache_hits + o.cache_hits,
            cache_misses: self.cache_misses + o.cache_misses,
            lepton_blocks: self.lepton_blocks + o.lepton_blocks,
            raw_blocks: self.raw_blocks + o.raw_blocks,
            bytes_in: self.bytes_in + o.bytes_in,
            bytes_stored: self.bytes_stored + o.bytes_stored,
            roundtrip_failures: self.roundtrip_failures + o.roundtrip_failures,
        }
    }

    /// Blocks written.
    pub fn writes(&self) -> u64 {
        self.lepton_blocks + self.raw_blocks
    }
}

/// Sums over every node of the service counters the report reads.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeTotals {
    /// `BlockGet` requests the nodes executed.
    pub block_gets: u64,
    /// `BlockPut` requests the nodes executed.
    pub block_puts: u64,
    /// Connections the nodes accepted.
    pub connections: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests that failed.
    pub failed: u64,
}

impl NodeTotals {
    /// Field-wise `self - earlier`.
    pub fn since(self, e: NodeTotals) -> NodeTotals {
        NodeTotals {
            block_gets: self.block_gets - e.block_gets,
            block_puts: self.block_puts - e.block_puts,
            connections: self.connections - e.connections,
            shed: self.shed - e.shed,
            failed: self.failed - e.failed,
        }
    }

    /// Field-wise sum.
    pub fn plus(self, o: NodeTotals) -> NodeTotals {
        NodeTotals {
            block_gets: self.block_gets + o.block_gets,
            block_puts: self.block_puts + o.block_puts,
            connections: self.connections + o.connections,
            shed: self.shed + o.shed,
            failed: self.failed + o.failed,
        }
    }
}

/// A running fleet and its gateway.
pub struct Harness {
    /// The nodes.
    pub fleet: LocalFleet,
    /// The gateway every workload goes through.
    pub gw: FleetGateway,
    vfs: Vec<Arc<TimingVfs>>,
    root: PathBuf,
}

impl Harness {
    /// Spawn the fleet on fresh directories under `root`.
    pub fn spawn(root: &Path) -> io::Result<Harness> {
        if root.exists() {
            std::fs::remove_dir_all(root)?;
        }
        std::fs::create_dir_all(root)?;
        let vfs: Vec<Arc<TimingVfs>> = (0..NODES).map(|_| Arc::new(TimingVfs::default())).collect();
        let fleet = LocalFleet::spawn_on(root, NODES, &store_config(), &service_config(), |i| {
            Arc::clone(&vfs[i]) as Arc<dyn Vfs>
        })?;
        let gw = FleetGateway::new(fleet.members().to_vec(), fleet_config());
        Ok(Harness {
            fleet,
            gw,
            vfs,
            root: root.to_path_buf(),
        })
    }

    /// Node index of `key`'s primary replica.
    pub fn primary(&self, key: &Digest) -> usize {
        self.gw.replica_set(key)[0]
    }

    /// Disk I/O counters summed over nodes.
    pub fn io(&self) -> IoSnapshot {
        self.vfs.iter().fold(IoSnapshot::default(), |acc, v| {
            acc.plus(v.counters.snapshot())
        })
    }

    /// Store counters summed over nodes.
    pub fn stores(&self) -> StoreTotals {
        let mut t = StoreTotals::default();
        for i in 0..NODES {
            let m = &self.fleet.store(i).metrics;
            t.cache_hits += m.cache_hits.get();
            t.cache_misses += m.cache_misses.get();
            t.lepton_blocks += m.lepton_blocks.get();
            t.raw_blocks += m.raw_blocks.get();
            t.bytes_in += m.bytes_in.get();
            t.bytes_stored += m.bytes_stored.get();
            t.roundtrip_failures += m.roundtrip_failures.get();
        }
        t
    }

    /// Service counters summed over live nodes.
    pub fn nodes(&self) -> NodeTotals {
        let mut t = NodeTotals::default();
        for i in 0..NODES {
            let Some(h) = self.fleet.handle(i) else {
                continue;
            };
            let snap = h.snapshot();
            let count = |op: &str| {
                snap.histogram(&format!("server.op.{op}.latency_us"))
                    .map_or(0, |h| h.count)
            };
            t.block_gets += count("block_get");
            t.block_puts += count("block_put");
            t.connections += h.connections().total();
            t.shed += h.metrics().shed.get();
            t.failed += h.metrics().failed.get();
        }
        t
    }

    /// Stop every node (joining its threads), then delete the fleet's
    /// directories.
    pub fn shutdown(self) -> io::Result<()> {
        let Harness {
            fleet, gw, root, ..
        } = self;
        drop(gw);
        drop(fleet);
        std::fs::remove_dir_all(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::hot_catalog;

    /// Once loaded and read, the hot catalog is served from the cache:
    /// a second pass over it misses nothing. The seeds are ones whose
    /// catalog overflowed a shard of 16 KiB.
    #[test]
    fn the_hot_catalog_stays_cached() {
        let root = Path::new(".bench_out").join(format!("hot-fits-{}", std::process::id()));
        for seed in [1, 15, 51, 57] {
            let h = Harness::spawn(&root).expect("spawn");
            let catalog = hot_catalog(seed, 2);
            for b in &catalog {
                assert_eq!(h.gw.put(&b.data).expect("put"), b.key);
            }
            let read_all = || {
                for b in &catalog {
                    assert_eq!(h.gw.get(&b.key).expect("get").as_deref(), Some(&b.data[..]));
                }
            };
            read_all();
            let before = h.stores();
            read_all();
            let after = h.stores().since(before);
            assert_eq!(after.cache_misses, 0, "seed {seed}");
            assert_eq!(after.cache_hits, catalog.len() as u64, "seed {seed}");
            h.shutdown().expect("shutdown");
        }
    }
}
