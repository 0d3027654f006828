//! The traced run's per-layer breakdown.
//!
//! Times come from two places, both read from outside the crates: the
//! benchmark's own wrappers ([`crate::probe`]) around the controller link,
//! the SB elements and the network applications, and the histograms the
//! program already keeps behind a bound `Telemetry` handle. Each traced
//! rep reads them before and after its timed phase; the difference is the
//! rep's sample. Self times are nested subtractions, so together with
//! `other.self_s` they sum to the rep's wall time by construction.

use crate::probe::{SbTotals, Span};
use crate::stats::{median, self_time};
use crate::workloads::Named;
use athena_controller::ControllerCluster;
use athena_core::Athena;
use athena_telemetry::{names, Telemetry};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The wrapper spans of one deployment. All `None` in an untraced rep,
/// whose wrappers then read no clock.
#[derive(Clone, Default)]
pub struct Probes {
    pub link: Option<Arc<Span>>,
    pub sb: Option<Arc<Span>>,
    pub apps: Option<Arc<Span>>,
    pub sb_totals: Arc<SbTotals>,
}

impl Probes {
    pub fn new(traced: bool) -> Self {
        let span = || traced.then(|| Arc::new(Span::default()));
        Probes {
            link: span(),
            sb: span(),
            apps: span(),
            sb_totals: Arc::default(),
        }
    }
}

fn secs(span: &Option<Arc<Span>>) -> f64 {
    span.as_ref().map_or(0.0, |s| s.secs())
}

fn hist_s(tel: &Telemetry, sub: &str, name: &str) -> f64 {
    tel.metrics().histogram(sub, name).snapshot().sum as f64 / 1e9
}

/// A cumulative source the traced run reads before and after each
/// timed phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Src {
    LinkS,
    LinkCalls,
    SbS,
    AppsS,
    FeatureGenS,
    DispatchS,
    InsertS,
    FindS,
    FitS,
    JobS,
    Tasks,
    ModeledS,
    Records,
    Examined,
    Inserts,
    ReplicaWrites,
    JournalBytes,
    Alerts,
    Blocked,
    CtlPacketIns,
    CtlFlowMods,
}

/// Readings of the sources at one instant. A source that was not read
/// (the workload has no such layer) reads 0.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reading(BTreeMap<Src, f64>);

impl Reading {
    pub fn of(values: impl IntoIterator<Item = (Src, f64)>) -> Self {
        Reading(values.into_iter().collect())
    }

    pub fn get(&self, src: Src) -> f64 {
        self.0.get(&src).copied().unwrap_or(0.0)
    }

    /// Reads every source. `tel` is the deployment's telemetry handle;
    /// `athena`/`cluster` are absent where the workload has none.
    pub fn take(
        tel: &Telemetry,
        probes: &Probes,
        athena: Option<&Athena>,
        cluster: Option<&ControllerCluster>,
    ) -> Reading {
        let core = names::core::SUBSYSTEM;
        let instances = cluster.map_or(0, ControllerCluster::instance_count);
        let per_sb = |name: &str| -> f64 {
            (0..instances)
                .map(|c| {
                    let h = tel.metrics().histogram_with(core, name, &format!("sb-{c}"));
                    h.snapshot().sum as f64 / 1e9
                })
                .sum()
        };
        let counter = |sub: &str, name: &str| tel.metrics().counter(sub, name).get() as f64;
        let mut r = Reading::of([
            (Src::LinkS, secs(&probes.link)),
            (
                Src::LinkCalls,
                probes.link.as_ref().map_or(0, |s| s.calls()) as f64,
            ),
            (Src::SbS, secs(&probes.sb)),
            (Src::AppsS, secs(&probes.apps)),
            (Src::FeatureGenS, per_sb(names::core::FEATURE_GEN_NS)),
            (Src::DispatchS, per_sb(names::core::DISPATCH_NS)),
            (
                Src::InsertS,
                hist_s(tel, names::store::SUBSYSTEM, names::store::INSERT_NS),
            ),
            (
                Src::FindS,
                hist_s(tel, names::store::SUBSYSTEM, names::store::FIND_NS),
            ),
            (Src::FitS, hist_s(tel, core, names::core::FIT_NS)),
            (
                Src::JobS,
                hist_s(tel, names::compute::SUBSYSTEM, names::compute::JOB_NS),
            ),
            (
                Src::Tasks,
                counter(names::compute::SUBSYSTEM, names::compute::TASKS),
            ),
            (Src::Records, probes.sb_totals.records() as f64),
            (Src::Examined, counter(core, names::core::FEATURE_RECORDS)),
        ]);
        if let Some(a) = athena {
            let store = &a.runtime().store;
            let m = store.metrics();
            r.0.extend([
                (Src::Inserts, m.inserts as f64),
                (Src::ReplicaWrites, m.replica_writes as f64),
                (Src::JournalBytes, store.total_journal_bytes() as f64),
                (Src::Alerts, a.total_alerts() as f64),
                (Src::Blocked, a.mitigated_hosts().len() as f64),
                (
                    Src::ModeledS,
                    a.detector_manager()
                        .compute()
                        .total_virtual_time()
                        .as_secs_f64(),
                ),
            ]);
        }
        if let Some(c) = cluster {
            r.0.extend([
                (Src::CtlPacketIns, c.counters().packet_ins as f64),
                (Src::CtlFlowMods, c.counters().flow_mods as f64),
            ]);
        }
        r
    }

    /// `self - before`, source by source.
    pub fn since(&self, before: &Reading) -> Reading {
        Reading::of(self.0.iter().map(|(&src, v)| (src, v - before.get(src))))
    }
}

/// The data plane's own figures for one timed phase, read from a
/// telemetry handle bound to the network for that phase only.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DataplaneReading {
    pub packet_ins: f64,
    pub delivered_bytes: f64,
    pub step_p50_us: f64,
    pub cache_hit_ratio: f64,
}

impl DataplaneReading {
    pub fn take(phase: &Telemetry) -> Self {
        let m = phase.metrics();
        let sub = names::dataplane::SUBSYSTEM;
        let hits = m.counter(sub, names::dataplane::CACHE_HITS).get() as f64;
        let misses = m.counter(sub, names::dataplane::CACHE_MISSES).get() as f64;
        DataplaneReading {
            packet_ins: m.counter(sub, names::dataplane::PACKET_INS).get() as f64,
            delivered_bytes: m.counter(sub, names::dataplane::DELIVERED_BYTES).get() as f64,
            step_p50_us: m.histogram(sub, names::dataplane::STEP_NS).snapshot().p50 as f64 / 1e3,
            cache_hit_ratio: if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        }
    }
}

/// One traced rep's sample.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerSample {
    /// Wall time of the timed phase.
    pub wall_s: f64,
    /// Time inside `Network` calls (0 where there is no network).
    pub net_s: f64,
    /// Time inside the NB calls of `nb_train` (0 elsewhere).
    pub nb_s: f64,
    pub d: Reading,
    pub dp: DataplaneReading,
    pub parallel_jobs: f64,
    pub parallel_serial_s: f64,
    pub parallel_width: f64,
    /// Resident-memory growth per stored document during `cbench`'s
    /// warm-up rep, in KB (0 on the other workloads).
    pub kb_per_doc: f64,
}

impl LayerSample {
    /// Reads the parallel pool's job log (accounting must have been on).
    pub fn take_parallel(&mut self) {
        let jobs = athena_parallel::take_jobs();
        self.parallel_jobs = jobs.len() as f64;
        self.parallel_serial_s = jobs.iter().map(|j| j.serial_ns()).sum::<u64>() as f64 / 1e9;
        self.parallel_width = jobs.iter().map(|j| j.width).max().unwrap_or(0) as f64;
    }

    /// Named per-layer values of this sample. The self times (`*.self_s`,
    /// `controller.apps_s`, `core.detector.s`, `store.insert_s`,
    /// `store.find_s`, `compute.job_s`, `other.self_s`) partition
    /// `trace.wall_s`.
    pub fn values(&self) -> Vec<Named> {
        let d = |src| self.d.get(src);
        // The outermost layer the workload drives: the network where
        // there is one, else the controller link itself (cbench).
        let (top, dataplane_self) = if self.net_s > 0.0 {
            (self.net_s, self_time(self.net_s, &[d(Src::LinkS)]))
        } else {
            (d(Src::LinkS), 0.0)
        };
        let other = self_time(self.wall_s, &[top, self.nb_s]);
        let controller_self = self_time(d(Src::LinkS), &[d(Src::SbS), d(Src::AppsS)]);
        let sb_self = self_time(d(Src::SbS), &[d(Src::DispatchS)]);
        let detector = self_time(d(Src::DispatchS), &[d(Src::InsertS)]);
        let nb_self = self_time(self.nb_s, &[d(Src::FindS), d(Src::FitS)]);
        let ml_self = self_time(d(Src::FitS), &[d(Src::JobS)]);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        vec![
            ("trace.wall_s", self.wall_s, "s"),
            ("other.self_s", other, "s"),
            ("dataplane.self_s", dataplane_self, "s"),
            ("dataplane.packet_ins", self.dp.packet_ins, "count"),
            (
                "dataplane.delivered_bytes",
                self.dp.delivered_bytes,
                "bytes",
            ),
            ("dataplane.step_p50_us", self.dp.step_p50_us, "us"),
            (
                "dataplane.cache_hit_ratio",
                self.dp.cache_hit_ratio,
                "fraction",
            ),
            ("controller.self_s", controller_self, "s"),
            ("controller.apps_s", d(Src::AppsS), "s"),
            ("controller.calls", d(Src::LinkCalls), "count"),
            (
                "controller.flow_mods_per_pkt_in",
                ratio(d(Src::CtlFlowMods), d(Src::CtlPacketIns)),
                "ratio",
            ),
            ("core.sb.s", d(Src::SbS), "s"),
            ("core.sb.self_s", sb_self, "s"),
            ("core.sb.feature_gen_s", d(Src::FeatureGenS), "s"),
            ("core.sb.records", d(Src::Records), "count"),
            ("core.detector.s", detector, "s"),
            ("core.detector.examined", d(Src::Examined), "count"),
            ("core.detector.alerts", d(Src::Alerts), "count"),
            ("core.reactor.blocked", d(Src::Blocked), "count"),
            ("store.insert_s", d(Src::InsertS), "s"),
            ("store.inserts", d(Src::Inserts), "count"),
            ("store.replica_writes", d(Src::ReplicaWrites), "count"),
            ("store.journal_bytes", d(Src::JournalBytes), "bytes"),
            (
                "store.bytes_per_insert",
                ratio(d(Src::JournalBytes), d(Src::Inserts)),
                "bytes",
            ),
            ("store.kb_per_doc", self.kb_per_doc, "KB"),
            ("store.find_s", d(Src::FindS), "s"),
            ("core.nb.self_s", nb_self, "s"),
            ("core.nb.fit_s", d(Src::FitS), "s"),
            ("ml.self_s", ml_self, "s"),
            ("compute.job_s", d(Src::JobS), "s"),
            ("compute.tasks", d(Src::Tasks), "count"),
            ("compute.modeled_s", d(Src::ModeledS), "s"),
            ("parallel.jobs", self.parallel_jobs, "count"),
            ("parallel.serial_s", self.parallel_serial_s, "s"),
            ("parallel.width", self.parallel_width, "count"),
        ]
    }
}

/// Names of the self times that partition `trace.wall_s`.
#[cfg(test)]
pub const SELF_TIMES: [&str; 11] = [
    "other.self_s",
    "dataplane.self_s",
    "controller.self_s",
    "controller.apps_s",
    "core.sb.self_s",
    "core.detector.s",
    "store.insert_s",
    "store.find_s",
    "core.nb.self_s",
    "ml.self_s",
    "compute.job_s",
];

/// The traced run's report: the mean of every per-layer value over the
/// traced reps, plus the tracing overhead (median traced wall over median
/// untraced wall, minus one). Means keep the self-time partition exact.
pub fn report(samples: &[LayerSample], traced_walls: &[f64], untraced_walls: &[f64]) -> Vec<Named> {
    let n = samples.len().max(1) as f64;
    let mut out: Vec<Named> = LayerSample::default()
        .values()
        .into_iter()
        .map(|(name, _, unit)| (name, 0.0, unit))
        .collect();
    for s in samples {
        for (slot, (_, v, _)) in out.iter_mut().zip(s.values()) {
            slot.1 += v / n;
        }
    }
    let overhead = match (median(traced_walls), median(untraced_walls)) {
        (Some(t), Some(u)) if u > 0.0 => t / u - 1.0,
        _ => 0.0,
    };
    out.push(("telemetry.overhead_frac", overhead, "fraction"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_of_self_times(values: &[(&str, f64, &str)]) -> f64 {
        values
            .iter()
            .filter(|(n, _, _)| SELF_TIMES.contains(n))
            .map(|(_, v, _)| v)
            .sum()
    }

    fn wall(values: &[(&str, f64, &str)]) -> f64 {
        values
            .iter()
            .find(|(n, _, _)| *n == "trace.wall_s")
            .unwrap()
            .1
    }

    #[test]
    fn live_rep_partitions_its_wall() {
        let s = LayerSample {
            wall_s: 2.0,
            net_s: 1.8,
            d: Reading::of([
                (Src::LinkS, 1.5),
                (Src::SbS, 1.0),
                (Src::AppsS, 0.1),
                (Src::DispatchS, 0.6),
                (Src::InsertS, 0.4),
            ]),
            ..LayerSample::default()
        };
        let v = s.values();
        assert!((sum_of_self_times(&v) - wall(&v)).abs() < 1e-12);
        let get = |name: &str| v.iter().find(|(n, _, _)| *n == name).unwrap().1;
        assert!((get("dataplane.self_s") - 0.3).abs() < 1e-12);
        assert!((get("controller.self_s") - 0.4).abs() < 1e-12);
        assert!((get("core.sb.self_s") - 0.4).abs() < 1e-12);
        assert!((get("core.detector.s") - 0.2).abs() < 1e-12);
        assert!((get("other.self_s") - 0.2).abs() < 1e-12);
    }

    #[test]
    fn nb_rep_partitions_its_wall() {
        let s = LayerSample {
            wall_s: 3.0,
            nb_s: 2.9,
            d: Reading::of([(Src::FindS, 0.5), (Src::FitS, 1.5), (Src::JobS, 1.0)]),
            ..LayerSample::default()
        };
        let v = s.values();
        assert!((sum_of_self_times(&v) - wall(&v)).abs() < 1e-12);
    }

    #[test]
    fn report_averages_samples_and_keeps_the_partition() {
        let a = LayerSample {
            wall_s: 1.0,
            d: Reading::of([(Src::LinkS, 0.8), (Src::SbS, 0.5)]),
            ..LayerSample::default()
        };
        let b = LayerSample {
            wall_s: 3.0,
            d: Reading::of([(Src::LinkS, 2.0), (Src::SbS, 1.0)]),
            ..LayerSample::default()
        };
        let r = report(&[a, b], &[1.1, 1.3], &[1.0]);
        assert!((wall(&r) - 2.0).abs() < 1e-12);
        assert!((sum_of_self_times(&r) - 2.0).abs() < 1e-12);
        let overhead = r.last().unwrap();
        assert_eq!(overhead.0, "telemetry.overhead_frac");
        assert!((overhead.1 - 0.2).abs() < 1e-9);
    }

    #[test]
    fn reading_difference_is_per_source() {
        let before = Reading::of([(Src::Inserts, 10.0), (Src::LinkS, 1.0)]);
        let after = Reading::of([(Src::Inserts, 25.0), (Src::LinkS, 1.5), (Src::Blocked, 2.0)]);
        let d = after.since(&before);
        assert_eq!(d.get(Src::Inserts), 15.0);
        assert_eq!(d.get(Src::LinkS), 0.5);
        assert_eq!(d.get(Src::Blocked), 2.0);
        assert_eq!(d.get(Src::FindS), 0.0);
    }
}
