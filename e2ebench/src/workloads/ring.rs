//! `ring`: raw `hotcalls::rt` byte calls in the paper's Fig. 9 shape — a
//! `spawn_pool` ring with one dedicated responder under the `patient()`
//! config — over a seeded size mix that covers the inline, slab and
//! caller-bound paths.

use hotcalls::rt::{ByteCallTable, ByteCaller, ByteRing};
use hotcalls::telemetry::PlaneTelemetry;
use hotcalls::HotCallConfig;

use crate::gen::Rng;
use crate::layers::Host;
use crate::Workload;

const CAPACITY: usize = 8;
const INLINE: usize = 0;
const SLAB: usize = 1;
const OUT2K: usize = 2;
/// `(request bytes, response bytes)` per class.
const SHAPE: [(usize, usize); 3] = [(16, 8), (512, 512), (8, 2_048)];

/// Expected response byte `j` of a request whose bytes are `req`.
fn expected(class: usize, req: &[u8], j: usize) -> u8 {
    match class {
        INLINE => req[0] ^ 0x5A,
        SLAB => req[j] ^ 0xA5,
        _ => req[0],
    }
}

/// The raw-ring workload.
#[derive(Debug)]
pub struct Ring {
    ring: ByteRing,
    caller: ByteCaller,
    ids: [u32; 3],
    rng: Rng,
    /// The last response, copied out of the recycled buffer.
    last: Vec<u8>,
}

/// One call: its size class and request bytes.
#[derive(Debug)]
pub struct RingInput {
    class: usize,
    req: Vec<u8>,
}

impl Workload for Ring {
    type Input = RingInput;
    /// The response length.
    type Output = usize;

    const VIRTUAL_OPS: u64 = 4_096;
    const BATCH: u64 = 10;
    const CLASSES: &'static [&'static str] = &["inline", "slab", "out2k"];
    const APP_LAYER: bool = false;

    fn setup(seed: u64, _trace: bool) -> Result<Self, String> {
        let mut table = ByteCallTable::new();
        let ids = [
            table.register(|_, buf| {
                let b = buf[0] ^ 0x5A;
                buf[..SHAPE[INLINE].1].fill(b);
                SHAPE[INLINE].1
            }),
            table.register(|n, buf| {
                for b in &mut buf[..n] {
                    *b ^= 0xA5;
                }
                n
            }),
            table.register(|_, buf| {
                let b = buf[0];
                buf[..SHAPE[OUT2K].1].fill(b);
                SHAPE[OUT2K].1
            }),
        ];
        let ring = ByteRing::spawn_pool(table, CAPACITY, 1, HotCallConfig::patient())
            .map_err(|e| e.to_string())?;
        let mut caller = ring.caller();
        // Set up means ready to serve: the responder answers a first call.
        caller
            .call_with(ids[INLINE], &[0u8; SHAPE[INLINE].0], SHAPE[INLINE].1, |r| {
                r.len()
            })
            .map_err(|e| e.to_string())?;
        Ok(Ring {
            ring,
            caller,
            ids,
            rng: Rng::new(seed, 5),
            last: Vec::with_capacity(4 << 10),
        })
    }

    fn gen(&mut self, _i: u64) -> RingInput {
        let class = match self.rng.below(100) {
            0..=69 => INLINE,
            70..=89 => SLAB,
            _ => OUT2K,
        };
        let mut req = vec![0u8; SHAPE[class].0];
        self.rng.fill(&mut req);
        RingInput { class, req }
    }

    fn op(&mut self, input: &RingInput) -> Result<usize, String> {
        let last = &mut self.last;
        self.caller
            .call_with(
                self.ids[input.class],
                &input.req,
                SHAPE[input.class].1,
                |resp| {
                    last.clear();
                    last.extend_from_slice(resp);
                    resp.len()
                },
            )
            .map_err(|e| e.to_string())
    }

    fn check(&mut self, _in_window: bool, input: &RingInput, out: &usize) -> bool {
        *out == SHAPE[input.class].1
            && self.last.len() == *out
            && self
                .last
                .iter()
                .enumerate()
                .all(|(j, &b)| b == expected(input.class, &input.req, j))
    }

    fn corrupt(&mut self, _out: &mut usize) {
        self.last[0] ^= 1;
    }

    fn bytes(input: &RingInput, out: &usize) -> u64 {
        (input.req.len() + out) as u64
    }

    fn class(input: &RingInput) -> usize {
        input.class
    }

    fn host(&self) -> Host {
        Host::default()
            .with_ring(&self.ring.ring_stats())
            .with_arena(&self.caller.arena_stats())
    }

    fn plane(&self) -> Option<PlaneTelemetry> {
        Some(self.ring.telemetry("ring"))
    }
}
