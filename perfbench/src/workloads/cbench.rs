//! `cbench`: Table IX "with Athena, with DB". A closed loop with one
//! client sends unique 64-byte TCP packet-ins round-robin over the
//! enterprise switches to a bare cluster running `CbenchResponder`, with
//! Athena's SB elements attached. Each rep is one deployment that
//! answers a fixed number of packet-ins, so the store grows through the
//! rep and every rep does equal work; a fresh deployment per rep bounds
//! memory (about 9 KB per stored feature).

use super::{add_southbound, rss_kb, secs_since, telemetry, Budget, Cfg, Outcome, Rep};
use crate::layers::{LayerSample, Probes, Reading};
use crate::probe::{wrap_processor, LinkProbe};
use crate::stats::{percentile_sorted, tail_supported};
use athena_controller::cbench::CbenchResponder;
use athena_controller::ControllerCluster;
use athena_core::{Athena, AthenaConfig};
use athena_dataplane::{ControllerLink, Topology};
use athena_openflow::{OfMessage, PacketHeader};
use athena_types::{Dpid, FiveTuple, Ipv4Addr, PortNo, SimTime, Xid};
use std::time::Instant;

/// Packet-ins one rep sends.
pub const PACKET_INS: usize = 20_000;

/// Unique packet-ins for one rep, round-robin over `topo`'s switches.
pub fn inputs(topo: &Topology, seed: u64, rep: u64, n: usize) -> Vec<(Dpid, OfMessage)> {
    let switches: Vec<Dpid> = topo.switches.iter().map(|s| s.dpid).collect();
    // xorshift64 from a per-rep state; distinct states give distinct
    // headers within a rep.
    let mut state = (seed ^ rep.wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1;
    (0..n)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let ft = FiveTuple::tcp(
                Ipv4Addr::from_raw(state as u32),
                (state >> 32) as u16,
                Ipv4Addr::from_raw((state >> 16) as u32),
                80,
            );
            let header = PacketHeader::from_five_tuple(PortNo::new(1), ft, 64);
            let dpid = switches[i % switches.len()];
            (dpid, OfMessage::packet_in(Xid::new(i as u32), header))
        })
        .collect()
}

/// The Table IX deployment: bare cluster, wrapped responder, Athena with
/// the default configuration and its SB elements wrapped.
pub fn deploy(
    topo: &Topology,
    tel: &athena_telemetry::Telemetry,
    probes: &Probes,
) -> (Athena, LinkProbe<ControllerCluster>) {
    let athena = Athena::with_telemetry(AthenaConfig::default(), tel.clone());
    let mut cluster = ControllerCluster::bare(topo);
    cluster.add_processor(Box::new(CbenchResponder));
    wrap_processor(&mut cluster, "cbench-responder", probes.apps.clone());
    if tel.is_enabled() {
        cluster.bind_telemetry(tel);
    }
    add_southbound(&athena, &mut cluster, probes);
    (athena, LinkProbe::new(cluster, probes.link.clone()))
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let topo = athena_dataplane::Topology::enterprise();
    let mut out = Outcome::default();
    let mut budget = Budget::new(cfg);
    let mut latencies_ns: Vec<f64> = Vec::new();
    let mut responses_total = 0u64;
    let mut kb_per_doc = 0.0;
    while let Some(rep) = budget.next_rep() {
        let traced = rep.traced();
        let msgs = inputs(&topo, cfg.seed, budget.reps() as u64, PACKET_INS);
        let setup = Instant::now();
        let tel = telemetry(traced);
        let probes = Probes::new(traced);
        let (athena, mut link) = deploy(&topo, &tel, &probes);
        let setup_s = secs_since(setup);

        let rss_before = rss_kb("VmRSS:");
        if traced {
            athena_parallel::set_accounting(true);
        }
        let before = Reading::take(&tel, &probes, Some(&athena), Some(&link.inner));
        let mut rep_lat = Vec::with_capacity(msgs.len());
        let mut responses = 0u64;
        let start = Instant::now();
        for (i, (dpid, msg)) in msgs.into_iter().enumerate() {
            let t = Instant::now();
            let cmds = link.on_message(dpid, msg, SimTime::from_micros(i as u64));
            rep_lat.push(t.elapsed().as_nanos() as f64);
            responses += cmds
                .iter()
                .filter(|(_, m)| matches!(m, OfMessage::FlowMod { .. }))
                .count() as u64;
        }
        let wall = secs_since(start);
        out.record(rep, Some(setup_s), wall, PACKET_INS as u64);

        let store = athena.runtime().store.metrics();
        let records = probes.sb_totals.records();
        if responses != PACKET_INS as u64 {
            return Err(format!(
                "cbench: {responses} flow-mod responses to {PACKET_INS} packet-ins"
            ));
        }
        if store.inserts != records {
            return Err(format!(
                "cbench: {} store inserts for {records} SB records",
                store.inserts
            ));
        }
        out.attempted += PACKET_INS as u64;
        out.failures.quorum_failures += store.quorum_failures;
        out.failures.polls_gave_up += probes.sb_totals.gave_up();

        match rep {
            // The first deployment grows the heap from nothing: the one
            // rep whose resident-memory growth is the store's footprint.
            Rep::Warmup => kb_per_doc = (rss_kb("VmRSS:") - rss_before) / store.inserts as f64,
            Rep::Traced => {
                let after = Reading::take(&tel, &probes, Some(&athena), Some(&link.inner));
                let mut s = LayerSample {
                    wall_s: wall,
                    d: after.since(&before),
                    kb_per_doc,
                    ..LayerSample::default()
                };
                s.take_parallel();
                athena_parallel::set_accounting(false);
                out.samples.push(s);
            }
            Rep::Untraced => {
                latencies_ns.extend(rep_lat);
                responses_total += responses;
            }
        }
    }

    if !out.work_s.is_empty() {
        latencies_ns.sort_by(f64::total_cmp);
        if !tail_supported(latencies_ns.len(), 99.0) {
            return Err(format!(
                "cbench: {} latency samples cannot support a p99",
                latencies_ns.len()
            ));
        }
        let pct = |p| percentile_sorted(&latencies_ns, p).unwrap_or(0.0) / 1e3;
        let wall: f64 = out.work_s.iter().sum();
        out.named = vec![
            ("pkt_in_rps", responses_total as f64 / wall, "responses/s"),
            ("pkt_in_p50_us", pct(50.0), "us"),
            ("pkt_in_p99_us", pct(99.0), "us"),
            ("pkt_in_samples", latencies_ns.len() as f64, "count"),
        ];
    }
    Ok(out)
}
