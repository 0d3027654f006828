//! `fattree_fwd`: Athena off. A k=8 fat-tree (80 switches) under
//! `ControllerCluster::new`'s reactive forwarding carries a seeded
//! benign mix for a fixed span of virtual time on `Network`, the engine
//! every Athena scenario runs on. The only dataplane-dominant workload.

use super::{secs_since, telemetry, Budget, Cfg, Live, Outcome};
use crate::layers::{DataplaneReading, LayerSample, Probes, Reading};
use crate::stats::median;
use athena_dataplane::{workload, Topology};
use athena_types::SimDuration;
use std::time::Instant;

const K: usize = 8;
const FLOWS: usize = 3_000;
const VIRTUAL_S: u64 = 10;

/// The run's equal-work digest: packet-ins, rule installs, delivered
/// bytes.
type Digest = (u64, u64, u64);

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut budget = Budget::new(cfg);
    let mut digest: Option<Digest> = None;
    while let Some(rep) = budget.next_rep() {
        let traced = rep.traced();
        // The inputs are generated before the set-up timer starts, so
        // `setup_s` times the deployment only.
        let topo = Topology::fat_tree(K);
        let flows =
            workload::benign_mix_on(&topo, FLOWS, SimDuration::from_secs(VIRTUAL_S), cfg.seed);
        let setup = Instant::now();
        let tel = telemetry(traced);
        let probes = Probes::new(traced);
        let mut live = Live::new(topo, false, &tel, &probes);
        live.net.inject_flows(flows);
        if traced {
            live.net.bind_telemetry(&tel);
        }
        let setup_s = secs_since(setup);

        if traced {
            athena_parallel::set_accounting(true);
        }
        let before = Reading::take(&tel, &probes, None, Some(&live.link.inner));
        let start = Instant::now();
        live.run_until_secs(VIRTUAL_S);
        let wall = secs_since(start);
        out.record(rep, Some(setup_s), wall, FLOWS as u64);

        let net = live.net.counters();
        let ctl = live.link.inner.counters();
        let d = (net.packet_ins, ctl.flow_mods, net.delivered_bytes);
        if net.packet_ins == 0 || net.delivered_bytes == 0 {
            return Err(format!("fattree_fwd: no traffic moved: {d:?}"));
        }
        match digest {
            None => digest = Some(d),
            Some(first) if first != d => {
                return Err(format!(
                    "fattree_fwd: counters differ between reps: {first:?} vs {d:?}"
                ))
            }
            Some(_) => {}
        }
        out.attempted += ctl.packet_ins;
        out.failures.unanswered += live.link.unanswered();

        if traced {
            let after = Reading::take(&tel, &probes, None, Some(&live.link.inner));
            let mut s = LayerSample {
                wall_s: wall,
                // The timed phase is one `Network::run_until` call.
                net_s: wall,
                d: after.since(&before),
                dp: DataplaneReading::take(&tel),
                ..LayerSample::default()
            };
            s.take_parallel();
            athena_parallel::set_accounting(false);
            out.samples.push(s);
        }
    }
    if let Some(w) = median(&out.work_s) {
        out.named = vec![("sim_rate", VIRTUAL_S as f64 / w, "virtual_s/s")];
    }
    Ok(out)
}
