//! `vpn`: openVPN driven iperf-style. Each op is one 1,448 B ingress
//! packet plus one egress ack every second packet; the peer seals off the
//! clock. HotCalls+NRZ over `RtTransport::Auto`: the ctl router, the
//! adaptive plane, fused Auto and the bundled auxiliary call mix.

use apps::openvpn::{self, OpenVpn};
use apps::{AppEnv, IfaceMode, RtTransport};
use bytes::Bytes;
use hotcalls::telemetry::PlaneTelemetry;
use sgx_sdk::BufArg;
use sgx_sim::SimConfig;

use crate::gen::Rng;
use crate::layers::{Host, Virt};
use crate::trace::Spans;
use crate::{Replay, Workload};

use super::{probe_machine, replay_calls};

const PAYLOAD_BYTES: usize = 1_448;
const ACK_BYTES: usize = 64;
const ACK_EVERY: u64 = 2;
/// The TUN read and socket receive drain a full MTU-sized buffer.
const MTU_BUF: u64 = 2_048;

/// The openVPN workload: the endpoint under test and its peer.
#[derive(Debug)]
pub struct Vpn {
    env: AppEnv,
    endpoint: OpenVpn,
    /// The peer runs natively on a machine of its own; its work is not
    /// ours.
    _peer_env: AppEnv,
    peer: OpenVpn,
    rng: Rng,
}

/// One packet event.
#[derive(Debug)]
pub struct VpnInput {
    payload: Vec<u8>,
    /// The payload as sealed by the peer.
    wire: Bytes,
    /// The ack the endpoint sends back, every second packet.
    ack: Option<Vec<u8>>,
}

/// What the endpoint delivered.
#[derive(Debug)]
pub struct VpnOutput {
    /// Plaintext written to the TUN device.
    plain: Bytes,
    /// The sealed ack on the wire.
    ack_wire: Option<Bytes>,
}

impl Workload for Vpn {
    type Input = VpnInput;
    type Output = VpnOutput;

    const VIRTUAL_OPS: u64 = 4_096;
    const BATCH: u64 = ACK_EVERY;

    fn setup(seed: u64, _trace: bool) -> Result<Self, String> {
        let mut secret = [0u8; 32];
        Rng::new(seed, 3).fill(&mut secret);
        let mut env = AppEnv::with_transport(
            SimConfig::builder().seed(seed).build(),
            IfaceMode::HotCallsNrz,
            &openvpn::api_table(),
            16 << 20,
            RtTransport::Auto,
        )
        .map_err(|e| e.to_string())?;
        env.enter_main().map_err(|e| e.to_string())?;
        let endpoint = OpenVpn::new(&mut env, &secret).map_err(|e| e.to_string())?;
        let mut peer_env = AppEnv::new(
            SimConfig::builder().seed(seed ^ 1).build(),
            IfaceMode::Native,
            &openvpn::api_table(),
            1 << 20,
        )
        .map_err(|e| e.to_string())?;
        let peer = OpenVpn::new(&mut peer_env, &secret).map_err(|e| e.to_string())?;
        Ok(Vpn {
            env,
            endpoint,
            _peer_env: peer_env,
            peer,
            rng: Rng::new(seed, 4),
        })
    }

    fn gen(&mut self, i: u64) -> VpnInput {
        let mut payload = vec![0u8; PAYLOAD_BYTES];
        self.rng.fill(&mut payload);
        let wire = self.peer.seal(&payload);
        let ack = i.is_multiple_of(ACK_EVERY).then(|| {
            let mut a = vec![0u8; ACK_BYTES];
            self.rng.fill(&mut a);
            a
        });
        VpnInput { payload, wire, ack }
    }

    fn op(&mut self, input: &VpnInput) -> Result<VpnOutput, String> {
        let plain = self
            .endpoint
            .ingress(&mut self.env, &input.wire)
            .map_err(|e| e.to_string())?;
        let ack_wire = match &input.ack {
            Some(a) => Some(
                self.endpoint
                    .egress(&mut self.env, a)
                    .map_err(|e| e.to_string())?,
            ),
            None => None,
        };
        Ok(VpnOutput { plain, ack_wire })
    }

    fn check(&mut self, _in_window: bool, input: &VpnInput, out: &VpnOutput) -> bool {
        let acked = match (&input.ack, &out.ack_wire) {
            (Some(a), Some(w)) => self.peer.open(w).is_ok_and(|p| p[..] == a[..]),
            (None, None) => true,
            _ => false,
        };
        acked && out.plain[..] == input.payload[..]
    }

    fn corrupt(&mut self, out: &mut VpnOutput) {
        let mut v = out.plain.to_vec();
        v[0] ^= 1;
        out.plain = Bytes::from(v);
    }

    fn bytes(input: &VpnInput, out: &VpnOutput) -> u64 {
        (input.wire.len()
            + out.plain.len()
            + out.ack_wire.as_ref().map_or(0, |w| w.len() + ACK_BYTES)) as u64
    }

    fn virt(&self) -> Virt {
        Virt::of_env(&self.env, openvpn::NAME)
    }

    fn host(&self) -> Host {
        Host::of_env(&self.env)
    }

    fn plane(&self) -> Option<PlaneTelemetry> {
        self.env.rt_telemetry("vpn")
    }

    fn replay(&mut self, window: &Virt, window_ops: u64, spans: &mut Spans) -> Replay {
        match self.replay_inner(window, window_ops, spans) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("vpn replay failed: {e}");
                Replay::default()
            }
        }
    }
}

impl Vpn {
    fn replay_inner(
        &mut self,
        window: &Virt,
        window_ops: u64,
        spans: &mut Spans,
    ) -> Result<Replay, String> {
        let env = &mut self.env;
        let tun = env.alloc_data(4 << 10).map_err(|e| e.to_string())?;
        let sock = env.alloc_data(4 << 10).map_err(|e| e.to_string())?;
        let sealed_ack = (8 + ACK_BYTES + 16) as u64;
        let recvfrom = replay_calls(spans, "recvfrom", || {
            env.api_call("recvfrom", &[BufArg::new(sock, MTU_BUF)])
        })?;
        let write = replay_calls(spans, "write", || {
            env.api_call("write", &[BufArg::new(tun, PAYLOAD_BYTES as u64)])
        })?;
        let read = replay_calls(spans, "read", || {
            env.api_call("read", &[BufArg::new(tun, MTU_BUF)])
        })?;
        let sendto = replay_calls(spans, "sendto", || {
            env.api_call("sendto", &[BufArg::new(sock, sealed_ack)])
        })?;
        // Each packet event bundles two polls and two time calls (plus an
        // occasional getpid) into one submission.
        let mix: [(&'static str, Option<BufArg>); 4] = [
            ("poll", None),
            ("poll", None),
            ("time", None),
            ("time", None),
        ];
        let aux = replay_calls(spans, "aux_batch", || env.api_call_batch(&mix))?;
        let per_op = |api: &str| {
            window
                .per_api
                .get(api)
                .map_or(0.0, |&(calls, _)| calls as f64 / window_ops as f64)
        };
        let batches_per_op = per_op("poll") / 2.0;
        let env_us_per_op = per_op("recvfrom") * recvfrom
            + per_op("write") * write
            + per_op("read") * read
            + per_op("sendto") * sendto
            + batches_per_op * aux;
        let region = env.alloc_data(8 << 20).map_err(|e| e.to_string())?;
        let host_ns_per_line = probe_machine(&mut env.machine, region, 8 << 20, spans)?;
        Ok(Replay {
            call_us: vec![
                ("recvfrom", recvfrom),
                ("write", write),
                ("read", read),
                ("sendto", sendto),
                ("aux_batch", aux),
            ],
            env_us_per_op,
            host_ns_per_line,
        })
    }
}
