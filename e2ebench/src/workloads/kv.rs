//! `kv`: memcached driven memtier-style — SET:GET 1:1, 2 KiB values,
//! uniform keys over a prefilled 2,048-key keyspace — on HotCalls+NRZ
//! over `AppEnv::new`'s default transport. Three edge calls per request
//! (`RunEnclaveFunction`, `read`, `sendmsg`).

use apps::memcached::protocol::{self, Opcode, Status};
use apps::memcached::{self, Memcached};
use apps::{AppEnv, IfaceMode};
use bytes::Bytes;
use hotcalls::telemetry::PlaneTelemetry;
use sgx_sdk::BufArg;
use sgx_sim::SimConfig;

use crate::gen::Rng;
use crate::layers::{Host, Virt};
use crate::trace::Spans;
use crate::{Replay, Workload};

use super::{probe_machine, replay_calls};

const KEYSPACE: u64 = 2_048;
const VALUE_BYTES: usize = 2_048;
/// memcached's receive buffer: every `read` drains a full one.
const RX_BUF_LEN: u64 = 2_560;
/// Bytes of a binary-protocol response before its body.
const RESP_HEADER: usize = 24;
/// memcached's own heap need, as the evaluation sizes it.
const APP_HEAP: u64 = 64 << 20;
/// Extra enclave heap a traced run reserves for its replay buffers and
/// `Machine` probe region, past everything the application allocates.
const REPLAY_HEAP: u64 = 12 << 20;
const PROBE_BYTES: u64 = 8 << 20;

/// The memcached workload.
#[derive(Debug)]
pub struct Kv {
    env: AppEnv,
    server: Memcached,
    rng: Rng,
    /// The latest value SET for each key.
    shadow: Vec<Vec<u8>>,
    /// Response wire lengths seen for `[SET, GET]`, for the replay.
    resp_len: [u64; 2],
}

/// One request.
#[derive(Debug)]
pub struct KvInput {
    key: usize,
    /// The value of a SET; `None` for a GET.
    value: Option<Vec<u8>>,
    opaque: u32,
    wire: Bytes,
}

fn key_bytes(key: usize) -> Vec<u8> {
    format!("memtier-{key:012}").into_bytes()
}

fn value(rng: &mut Rng) -> Vec<u8> {
    let mut v = vec![0u8; VALUE_BYTES];
    rng.fill(&mut v);
    v
}

impl Workload for Kv {
    type Input = KvInput;
    type Output = Bytes;

    const VIRTUAL_OPS: u64 = 4_096;
    const BATCH: u64 = 2;

    fn setup(seed: u64, trace: bool) -> Result<Self, String> {
        let mut env = AppEnv::new(
            SimConfig::builder().seed(seed).build(),
            IfaceMode::HotCallsNrz,
            &memcached::api_table(),
            APP_HEAP + if trace { REPLAY_HEAP } else { 0 },
        )
        .map_err(|e| e.to_string())?;
        let mut server = Memcached::new(&mut env, 8_192, 2_048).map_err(|e| e.to_string())?;
        let mut prefill = Rng::new(seed, 1);
        let mut shadow = Vec::with_capacity(KEYSPACE as usize);
        for key in 0..KEYSPACE as usize {
            let v = value(&mut prefill);
            let wire = protocol::encode_set(&key_bytes(key), &v, key as u32);
            let resp = server.serve(&mut env, wire).map_err(|e| e.to_string())?;
            let parsed = protocol::parse_response(resp).map_err(|e| e.to_string())?;
            if parsed.status != Status::Ok {
                return Err(format!(
                    "prefill SET of key {key} returned {:?}",
                    parsed.status
                ));
            }
            shadow.push(v);
        }
        Ok(Kv {
            env,
            server,
            rng: Rng::new(seed, 2),
            shadow,
            resp_len: [0; 2],
        })
    }

    fn gen(&mut self, i: u64) -> KvInput {
        let key = self.rng.below(KEYSPACE) as usize;
        let opaque = i as u32;
        if i.is_multiple_of(2) {
            let v = value(&mut self.rng);
            let wire = protocol::encode_set(&key_bytes(key), &v, opaque);
            KvInput {
                key,
                value: Some(v),
                opaque,
                wire,
            }
        } else {
            KvInput {
                key,
                value: None,
                opaque,
                wire: protocol::encode_get(&key_bytes(key), opaque),
            }
        }
    }

    fn op(&mut self, input: &KvInput) -> Result<Bytes, String> {
        self.server
            .serve(&mut self.env, input.wire.clone())
            .map_err(|e| e.to_string())
    }

    fn check(&mut self, _in_window: bool, input: &KvInput, out: &Bytes) -> bool {
        let Ok(resp) = protocol::parse_response(out.clone()) else {
            return false;
        };
        if resp.status != Status::Ok || resp.opaque != input.opaque {
            return false;
        }
        match &input.value {
            Some(v) => {
                self.resp_len[0] = out.len() as u64;
                self.shadow[input.key].copy_from_slice(v);
                resp.opcode == Opcode::Set
            }
            None => {
                self.resp_len[1] = out.len() as u64;
                resp.opcode == Opcode::Get && resp.value[..] == self.shadow[input.key][..]
            }
        }
    }

    fn corrupt(&mut self, out: &mut Bytes) {
        // A GET's last value byte; a bodiless SET response's status word
        // (Ok reads back as KeyNotFound).
        let mut v = out.to_vec();
        let at = if v.len() > RESP_HEADER {
            v.len() - 1
        } else {
            7
        };
        v[at] ^= 1;
        *out = Bytes::from(v);
    }

    fn bytes(input: &KvInput, out: &Bytes) -> u64 {
        (input.wire.len() + out.len()) as u64
    }

    fn virt(&self) -> Virt {
        Virt::of_env(&self.env, memcached::NAME)
    }

    fn host(&self) -> Host {
        Host::of_env(&self.env)
    }

    fn plane(&self) -> Option<PlaneTelemetry> {
        self.env.rt_telemetry("kv")
    }

    fn replay(&mut self, window: &Virt, window_ops: u64, spans: &mut Spans) -> Replay {
        match self.replay_inner(window, window_ops, spans) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("kv replay failed: {e}");
                Replay::default()
            }
        }
    }
}

impl Kv {
    fn replay_inner(
        &mut self,
        window: &Virt,
        window_ops: u64,
        spans: &mut Spans,
    ) -> Result<Replay, String> {
        let env = &mut self.env;
        let rx = env.alloc_data(16 << 10).map_err(|e| e.to_string())?;
        let tx = env.alloc_data(16 << 10).map_err(|e| e.to_string())?;
        let shell = replay_calls(spans, "RunEnclaveFunction", || {
            env.run_enclave_function(|_| Ok(()))
        })?;
        let read = replay_calls(spans, "read", || {
            env.api_call("read", &[BufArg::new(rx, RX_BUF_LEN)])
        })?;
        // Responses alternate SET-sized and GET-sized, as in the mix.
        let lens = self.resp_len;
        let mut n = 0usize;
        let sendmsg = replay_calls(spans, "sendmsg", || {
            n += 1;
            env.api_call("sendmsg", &[BufArg::new(tx, lens[n % 2])])
        })?;
        let per_op = |api: &str| {
            window
                .per_api
                .get(api)
                .map_or(0.0, |&(calls, _)| calls as f64 / window_ops as f64)
        };
        let env_us_per_op = per_op("RunEnclaveFunction") * shell
            + per_op("read") * read
            + per_op("sendmsg") * sendmsg;
        let region = env.alloc_data(PROBE_BYTES).map_err(|e| e.to_string())?;
        let host_ns_per_line = probe_machine(&mut env.machine, region, PROBE_BYTES, spans)?;
        Ok(Replay {
            call_us: vec![
                ("RunEnclaveFunction", shell),
                ("read", read),
                ("sendmsg", sendmsg),
            ],
            env_us_per_op,
            host_ns_per_line,
        })
    }
}
