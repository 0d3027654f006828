//! `ddos_live`: the paper's scenario 1 on the enterprise topology, from
//! attack onset through verdict to `Block`.
//!
//! Set-up collects a benign mix plus a flood, trains `DdosDetector`
//! (K-Means, k=8) on the stored features and deploys its online
//! validator. The timed phase then runs continuing benign traffic and,
//! after a quiet period in which the validator must raise no alert, a
//! fresh flood, for a fixed span of virtual time. The share of benign
//! hosts the validator blocks after the onset is reported (`far`). It is
//! the one workload where the SB detector and the reactor run hot.

use super::{secs_since, shifted, telemetry, Budget, Cfg, Live, Outcome, Rep};
use crate::layers::{DataplaneReading, LayerSample, Probes, Reading};
use crate::stats::median;
use athena_apps::{DdosDetector, DdosDetectorConfig};
use athena_core::DetectionModel;
use athena_dataplane::{workload, FlowSpec, Topology};
use athena_types::{Ipv4Addr, SimDuration, SimTime};
use std::collections::BTreeSet;
use std::time::Instant;

/// Set-up traffic (the `tests/e2e_ddos.rs` scenario), collected until
/// `TRAIN_S`; benign traffic then continues.
const SETUP_BENIGN: usize = 120;
const SETUP_ATTACK: usize = 250;
const TRAIN_S: u64 = 35;
/// Seeds of the background traffic: the benign mix and the flood the
/// validator is trained on (the end-to-end suite's scenario 1), and the
/// benign mix that continues through the timed phase. `--seed` draws the
/// flood the validator must then catch. Trained on traffic drawn from the
/// seed, the validator blocked every host before the onset on some seeds
/// and left those runs half the work; and the cost of a stats poll grows
/// faster than linearly with the flow entries it returns, so a benign mix
/// drawn from the seed moved rep time by half as much again across seeds.
const SCENARIO_SEEDS: [u64; 3] = [101, 102, 103];
const BENIGN: usize = 200;
/// The validator is deployed once the first flood's rules have idled
/// out of the tables; the timed phase starts there.
const DEPLOY_S: u64 = 60;
/// The fresh flood's onset, after a quiet period.
const PHASE_ATTACK: usize = 250;
const ONSET_S: u64 = 70;
/// The timed phase ends a few virtual seconds after the first blocks
/// (about 76 s). How many benign hosts the validator goes on to block
/// varies with the seed, and every blocked host takes its traffic out of
/// the rest of the run, so a longer tail would make the work per rep
/// vary with the seed.
const END_S: u64 = 80;

/// Share of the flood's sources that must end up blocked. The live path
/// has no false-alarm bar in the end-to-end suite (it asserts only that
/// the validator fires and blocks), so `far` is reported, not checked.
const MIN_DR: f64 = 0.9;

fn flood(topo: &Topology, victim: Ipv4Addr, start_s: u64, n: usize, seed: u64) -> Vec<FlowSpec> {
    workload::ddos_flood(
        topo,
        victim,
        workload::DdosParams {
            start: SimTime::from_secs(start_s),
            duration: SimDuration::from_secs(22),
            n_flows: n,
            ..workload::DdosParams::default()
        },
        seed,
    )
}

/// What one rep saw of the attack, and the feature records its timed
/// phase stored.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Verdict {
    inserts: u64,
    detect_vs: f64,
    dr: f64,
    far: f64,
    blocked: usize,
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut budget = Budget::new(cfg);
    let mut verdict: Option<Verdict> = None;
    let mut sim_rates = Vec::new();
    // The training traffic is fixed, so the warm-up rep's model is the
    // model every rep would train; later reps deploy it without training.
    let mut trained: Option<DetectionModel> = None;
    while let Some(rep) = budget.next_rep() {
        let traced = rep.traced();
        let setup = Instant::now();
        let tel = telemetry(traced);
        let probes = Probes::new(traced);
        let mut live = Live::new(Topology::enterprise(), true, &tel, &probes);
        let topo = live.topo.clone();
        let victim = topo.hosts[0].ip;
        live.net.inject_flows(workload::benign_mix_on(
            &topo,
            SETUP_BENIGN,
            SimDuration::from_secs(30),
            SCENARIO_SEEDS[0],
        ));
        live.net
            .inject_flows(flood(&topo, victim, 8, SETUP_ATTACK, SCENARIO_SEEDS[1]));
        live.net.inject_flows(shifted(
            workload::benign_mix_on(
                &topo,
                BENIGN,
                SimDuration::from_secs(END_S - TRAIN_S),
                SCENARIO_SEEDS[2],
            ),
            SimDuration::from_secs(TRAIN_S),
        ));
        live.run_until_secs(TRAIN_S);
        let detector = DdosDetector::new(DdosDetectorConfig {
            victim,
            ..DdosDetectorConfig::default()
        });
        let model = match &trained {
            Some(m) => m.clone(),
            None => {
                out.attempted += 1;
                let m = detector
                    .train(live.athena())
                    .map_err(|e| format!("ddos_live: training failed: {e}"))?;
                trained = Some(m.clone());
                m
            }
        };
        live.run_until_secs(DEPLOY_S);
        detector.deploy_online(live.athena(), model);
        let attack = flood(&topo, victim, ONSET_S, PHASE_ATTACK, cfg.seed);
        let bots: BTreeSet<Ipv4Addr> = attack.iter().map(|f| f.five_tuple.src).collect();
        live.net.inject_flows(attack);
        let phase_tel = telemetry(traced);
        if traced {
            live.net.bind_telemetry(&phase_tel);
        }
        let setup_s = secs_since(setup);

        if traced {
            athena_parallel::set_accounting(true);
        }
        let before = Reading::take(&tel, &probes, live.athena.as_ref(), Some(&live.link.inner));
        let blocked_bots = |live: &Live| {
            let athena = live.athena();
            athena
                .mitigated_hosts()
                .iter()
                .filter(|ip| bots.contains(ip))
                .count()
        };
        let inserts_before = live.athena().runtime().store.metrics().inserts;
        let mut first_block: Option<u64> = None;
        let mut quiet_alerts = 0;
        let mut bots_at_onset = 0;
        let mut net_s = 0.0;
        let start = Instant::now();
        for t in DEPLOY_S + 1..=END_S {
            let step = Instant::now();
            live.run_until_secs(t);
            net_s += secs_since(step);
            if t == ONSET_S {
                quiet_alerts = live.athena().total_alerts();
                bots_at_onset = blocked_bots(&live);
            } else if t > ONSET_S && first_block.is_none() && blocked_bots(&live) > bots_at_onset {
                first_block = Some(t);
            }
        }
        let wall = secs_since(start);
        let athena = live.athena();
        let store = athena.runtime().store.metrics();
        // One operation is one virtual second of the timed phase: a unit
        // the input fixes, whatever the program does with the traffic.
        out.record(rep, Some(setup_s), wall, END_S - DEPLOY_S);

        out.attempted += live.link.inner.counters().packet_ins + store.inserts;
        out.failures.unanswered += live.link.unanswered();
        out.failures.quorum_failures += store.quorum_failures;
        out.failures.polls_gave_up += probes.sb_totals.gave_up();
        if quiet_alerts > 0 {
            return Err(format!(
                "ddos_live: {quiet_alerts} alerts on benign traffic before the onset"
            ));
        }
        let Some(block_s) = first_block else {
            return Err("ddos_live: no flood source was blocked after the onset".into());
        };
        let blocked: BTreeSet<Ipv4Addr> = athena.mitigated_hosts().into_iter().collect();
        // Every host that sent no flood traffic, the victim included.
        let benign: BTreeSet<Ipv4Addr> = topo
            .hosts
            .iter()
            .map(|h| h.ip)
            .filter(|ip| !bots.contains(ip))
            .collect();
        let v = Verdict {
            inserts: store.inserts - inserts_before,
            detect_vs: (block_s - ONSET_S) as f64,
            dr: blocked.intersection(&bots).count() as f64 / bots.len() as f64,
            far: blocked.intersection(&benign).count() as f64 / benign.len().max(1) as f64,
            blocked: blocked.len(),
        };
        if v.dr < MIN_DR {
            return Err(format!("ddos_live: verdict outside the bars: {v:?}"));
        }
        match verdict {
            None => verdict = Some(v),
            Some(first) if first != v => {
                return Err(format!(
                    "ddos_live: reps disagree on the verdict: {first:?} vs {v:?}"
                ))
            }
            Some(_) => {}
        }

        if traced {
            let after = Reading::take(&tel, &probes, live.athena.as_ref(), Some(&live.link.inner));
            let mut s = LayerSample {
                wall_s: wall,
                net_s,
                d: after.since(&before),
                dp: DataplaneReading::take(&phase_tel),
                ..LayerSample::default()
            };
            s.take_parallel();
            athena_parallel::set_accounting(false);
            out.samples.push(s);
        } else if rep == Rep::Untraced {
            sim_rates.push((END_S - DEPLOY_S) as f64 / wall);
        }
    }
    if let (Some(v), Some(rate)) = (verdict, median(&sim_rates)) {
        out.named = vec![
            ("sim_rate", rate, "virtual_s/s"),
            ("detect_vs", v.detect_vs, "virtual_s"),
            ("inserts_per_rep", v.inserts as f64, "count"),
            ("dr", v.dr, "fraction"),
            ("far", v.far, "fraction"),
        ];
    }
    Ok(out)
}
