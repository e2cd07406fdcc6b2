//! `store`: `SecureStore` put+get of `workloads::stress::mixed_sizes`
//! objects (16 KiB–4 MiB, 25% duplicate blocks) streamed through the
//! scatter-gather ring with a fixed chunk and window. Sizes are drawn one
//! per log-spaced stratum, 32 strata to a batch, so every run sees the
//! same size mix whatever its seed.

use std::time::Instant;

use apps::storage::SecureStore;
use hotcalls::rt::StreamReport;
use hotcalls::telemetry::PlaneTelemetry;
use hotcalls::{GovernorStats, HotCallConfig, RingStats};
use workloads::stress::{mixed_sizes, ObjectSpec};

use crate::gen::Rng;
use crate::layers::Host;
use crate::run::Metric;
use crate::stats::{ratio, MIB};
use crate::Workload;

const CHUNK: usize = 256 << 10;
const WINDOW: usize = 4;
const CAPACITY: usize = 16;
const MIN_BYTES: f64 = (16 << 10) as f64;
const MAX_BYTES: f64 = (4 << 20) as f64;
const STRATA: u64 = 32;
/// Object names cycle over this many slots, bounding the store's memory.
const SLOTS: u64 = 16;

/// The secure-storage workload.
#[derive(Debug)]
pub struct Store {
    store: SecureStore,
    secret: [u8; 32],
    rng: Rng,
    /// The rest of the current batch of object specs.
    batch: Vec<ObjectSpec>,
    /// Ticket ledger of every put's stream.
    submitted: u64,
    redeemed: u64,
    /// Host time and bytes of puts and gets in the current phase.
    put_ns: u64,
    put_bytes: u64,
    get_ns: u64,
    get_bytes: u64,
    /// `(dedup hits, blocks)` at the end of the virtual window.
    window_dedup: (u64, u64),
}

/// One object to put and read back.
#[derive(Debug)]
pub struct StoreInput {
    name: String,
    data: Vec<u8>,
}

/// What the store returned.
#[derive(Debug)]
pub struct StoreOutput {
    put_ns: u64,
    get_ns: u64,
    got: Vec<u8>,
    report: StreamReport,
}

impl Store {
    /// One spec per log-spaced size stratum, in seeded order.
    fn next_batch(&mut self) -> Vec<ObjectSpec> {
        let span = MAX_BYTES / MIN_BYTES;
        let mut batch: Vec<ObjectSpec> = (0..STRATA)
            .map(|s| {
                let lo = MIN_BYTES * span.powf(s as f64 / STRATA as f64);
                let hi = MIN_BYTES * span.powf((s + 1) as f64 / STRATA as f64);
                let mut spec =
                    mixed_sizes(1, lo as usize, hi as usize, self.rng.next_u64()).remove(0);
                spec.name.clear();
                spec
            })
            .collect();
        for i in (1..batch.len()).rev() {
            let j = self.rng.below(i as u64 + 1) as usize;
            batch.swap(i, j);
        }
        batch
    }
}

impl Workload for Store {
    type Input = StoreInput;
    type Output = StoreOutput;

    const VIRTUAL_OPS: u64 = STRATA;
    const BATCH: u64 = STRATA;

    fn setup(seed: u64, _trace: bool) -> Result<Self, String> {
        let mut secret = [0u8; 32];
        Rng::new(seed, 6).fill(&mut secret);
        let store = SecureStore::new(&secret, CAPACITY, 1, HotCallConfig::patient())
            .map_err(|e| e.to_string())?;
        Ok(Store {
            store,
            secret,
            rng: Rng::new(seed, 7),
            batch: Vec::new(),
            submitted: 0,
            redeemed: 0,
            put_ns: 0,
            put_bytes: 0,
            get_ns: 0,
            get_bytes: 0,
            window_dedup: (0, 0),
        })
    }

    fn gen(&mut self, i: u64) -> StoreInput {
        if self.batch.is_empty() {
            self.batch = self.next_batch();
        }
        let spec = self.batch.pop().expect("a fresh batch is never empty");
        StoreInput {
            name: format!("obj-{}", i % SLOTS),
            data: spec.fill(),
        }
    }

    fn op(&mut self, input: &StoreInput) -> Result<StoreOutput, String> {
        let t0 = Instant::now();
        let receipt = self
            .store
            .put(&input.name, &input.data, WINDOW, || CHUNK)
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let got = self
            .store
            .get(&input.name, WINDOW, || CHUNK)
            .map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        Ok(StoreOutput {
            put_ns: (t1 - t0).as_nanos() as u64,
            get_ns: (t2 - t1).as_nanos() as u64,
            got,
            report: receipt.report,
        })
    }

    fn check(&mut self, in_window: bool, input: &StoreInput, out: &StoreOutput) -> bool {
        let len = input.data.len();
        self.put_ns += out.put_ns;
        self.get_ns += out.get_ns;
        self.put_bytes += len as u64;
        self.get_bytes += len as u64;
        self.submitted += out.report.submitted;
        self.redeemed += out.report.redeemed;
        if in_window {
            let s = self.store.stats();
            self.window_dedup = (s.dedup_hits, s.blocks);
        }
        let (cipher, tags) = SecureStore::seal_reference(&self.secret, &input.data);
        let sealed = self
            .store
            .object(&input.name)
            .is_some_and(|o| o.cipher() == &cipher[..] && o.block_tags() == &tags[..]);
        sealed && out.got == input.data
    }

    fn corrupt(&mut self, out: &mut StoreOutput) {
        out.got[0] ^= 1;
    }

    fn bytes(input: &StoreInput, _out: &StoreOutput) -> u64 {
        2 * input.data.len() as u64
    }

    fn host(&self) -> Host {
        let s = self.store.stats();
        Host {
            stream_chunks: s.chunks,
            stream_bytes: s.bytes_in + s.bytes_out,
            stream_resizes: s.chunk_resizes,
            stream_submitted: self.submitted,
            stream_redeemed: self.redeemed,
            ..Host::default()
        }
        .with_ring(&RingStats::from_single(
            self.store.ring_stats(),
            GovernorStats::default(),
        ))
        .with_arena(&self.store.arena_stats())
    }

    fn plane(&self) -> Option<PlaneTelemetry> {
        Some((self.store.telemetry_provider())())
    }

    fn begin_phase(&mut self) {
        self.put_ns = 0;
        self.put_bytes = 0;
        self.get_ns = 0;
        self.get_bytes = 0;
    }

    fn extra(&self) -> Vec<Metric> {
        vec![
            Metric::host(
                "apps.store.put_us_per_mib",
                ratio(self.put_ns as f64 / 1e3, self.put_bytes as f64 / MIB),
                "host_us",
            ),
            Metric::host(
                "apps.store.get_us_per_mib",
                ratio(self.get_ns as f64 / 1e3, self.get_bytes as f64 / MIB),
                "host_us",
            ),
            Metric::virt(
                "apps.store.dedup_hit_share",
                ratio(self.window_dedup.0 as f64, self.window_dedup.1 as f64),
                "virt_share",
            ),
        ]
    }
}
