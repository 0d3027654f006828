//! `nb_train`: the NB batch path. Set-up fills the store with live
//! collected features (benign mix plus flood on the enterprise
//! topology); each rep then runs `DdosDetector::train` and `test`, which
//! both issue `request_features`. The store read path (find and document
//! decoding) plus compute and ML, with no dataplane or controller in the
//! timed phase — the counterpart of `cbench`'s writes.

use super::{secs_since, Budget, Cfg, Live, Outcome, Rep};
use crate::layers::{LayerSample, Probes, Reading};
use crate::stats::median;
use athena_apps::{DdosDetector, DdosDetectorConfig};
use athena_dataplane::{workload, Topology};
use athena_ml::ConfusionMatrix;
use athena_telemetry::Telemetry;
use athena_types::{SimDuration, SimTime};
use std::time::Instant;

const BENIGN: usize = 450;
const ATTACK: usize = 900;
const COLLECT_S: u64 = 60;
/// The store must hold at least this many features, and training must
/// see enough to take the distributed (compute-cluster) fit path.
const MIN_STORED: usize = 75_000;
/// Deployments built per run, for a median set-up time. The reps use
/// the first; the others are built after the reps, one at a time, so the
/// reps run on a heap that held one store only.
const SETUPS: usize = 3;

/// Builds a deployment and collects its features.
fn collect(seed: u64, tel: &Telemetry) -> Live {
    let probes = Probes::new(false);
    let mut live = Live::new(Topology::enterprise(), true, tel, &probes);
    let topo = live.topo.clone();
    let victim = topo.hosts[0].ip;
    live.net.inject_flows(workload::benign_mix_on(
        &topo,
        BENIGN,
        SimDuration::from_secs(COLLECT_S),
        seed,
    ));
    live.net.inject_flows(workload::ddos_flood(
        &topo,
        victim,
        workload::DdosParams {
            start: SimTime::from_secs(10),
            duration: SimDuration::from_secs(40),
            n_flows: ATTACK,
            ..workload::DdosParams::default()
        },
        seed ^ 1,
    ));
    live.run_until_secs(COLLECT_S);
    live
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // One telemetry handle, recording only during traced reps.
    let tel = Telemetry::off();
    let setup = Instant::now();
    let live = collect(cfg.seed, &tel);
    out.setup_s.push(secs_since(setup));
    let athena = live.athena();
    let stored = athena.stored_feature_count();
    if stored < MIN_STORED {
        return Err(format!("nb_train: only {stored} features stored"));
    }
    let detector = DdosDetector::new(DdosDetectorConfig {
        victim: live.topo.hosts[0].ip,
        ..DdosDetectorConfig::default()
    });

    let probes = Probes::new(false);
    let mut budget = Budget::new(cfg);
    let mut expected: Option<(usize, ConfusionMatrix)> = None;
    let (mut train_s, mut validate_s) = (Vec::new(), Vec::new());
    while let Some(rep) = budget.next_rep() {
        let traced = rep.traced();
        tel.set_enabled(traced);
        if traced {
            athena_parallel::set_accounting(true);
        }
        let before = Reading::take(&tel, &probes, Some(athena), None);
        let start = Instant::now();
        out.attempted += 2;
        let model = match detector.train(athena) {
            Ok(m) => m,
            Err(e) => {
                out.failures.train_failures += 1;
                return Err(format!("nb_train: training failed: {e}"));
            }
        };
        let trained = secs_since(start);
        let test_start = Instant::now();
        let summary = detector.test(athena, &model);
        let validated = secs_since(test_start);
        let wall = secs_since(start);
        tel.set_enabled(false);
        // One operation is one train-and-test pass over the store the
        // set-up filled.
        out.record(rep, None, wall, 1);

        let this = (model.trained_on, summary.confusion);
        match expected {
            None => expected = Some(this),
            Some(first) if first != this => {
                return Err(format!("nb_train: reps disagree: {first:?} vs {this:?}"))
            }
            Some(_) => {}
        }
        if traced {
            let after = Reading::take(&tel, &probes, Some(athena), None);
            let mut s = LayerSample {
                wall_s: wall,
                nb_s: trained + validated,
                d: after.since(&before),
                ..LayerSample::default()
            };
            s.take_parallel();
            athena_parallel::set_accounting(false);
            out.samples.push(s);
        } else if rep == Rep::Untraced {
            train_s.push(trained);
            validate_s.push(validated);
        }
    }

    drop(live);
    for _ in 1..SETUPS {
        let setup = Instant::now();
        let again = collect(cfg.seed, &tel);
        out.setup_s.push(secs_since(setup));
        drop(again);
    }

    let Some((trained_on, cm)) = expected else {
        return Err("nb_train: no rep ran".into());
    };
    let (dr, far) = (cm.detection_rate(), cm.false_alarm_rate());
    if dr < 0.9 || far > 0.1 {
        return Err(format!("nb_train: validation outside the bars: {cm:?}"));
    }
    if let (Some(t), Some(v)) = (median(&train_s), median(&validate_s)) {
        out.named = vec![
            ("train_s", t, "s"),
            ("validate_s", v, "s"),
            ("dr", dr, "fraction"),
            ("far", far, "fraction"),
            ("trained_on", trained_on as f64, "count"),
            ("stored", stored as f64, "count"),
        ];
    }
    Ok(out)
}
