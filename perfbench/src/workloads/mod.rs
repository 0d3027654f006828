//! The four workloads and what they share: the run budget, the
//! deployment builder (wrapped seams in place of `Athena::attach`) and
//! the outcome every workload returns.

pub mod cbench;
pub mod ddos_live;
pub mod fattree_fwd;
pub mod nb_train;

use crate::layers::{LayerSample, Probes};
use crate::probe::{wrap_processor, LinkProbe, SbProbe};
use crate::stats::Failures;
use athena_controller::ControllerCluster;
use athena_core::{Athena, AthenaConfig};
use athena_dataplane::{FlowSpec, Network, Topology};
use athena_telemetry::Telemetry;
use athena_types::{ControllerId, SimDuration};
use std::time::Instant;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["cbench", "ddos_live", "nb_train", "fattree_fwd"];

/// Whatever the run is given on its command line.
#[derive(Debug, Clone, Copy)]
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// A workload-specific metric, printed by name with its unit.
pub type Named = (&'static str, f64, &'static str);

/// What one run of a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Set-up time of every measured deployment the run built.
    pub setup_s: Vec<f64>,
    /// Wall time of every untraced rep's timed phase.
    pub work_s: Vec<f64>,
    /// Operations in the inputs of the untraced reps.
    pub ops: u64,
    /// Wall time of every traced rep's timed phase.
    pub traced_s: Vec<f64>,
    /// Per-layer samples of the traced reps.
    pub samples: Vec<LayerSample>,
    /// `VmHWM` when the run's `MIN_MEASURED`-th measured rep ended, in KB.
    pub peak_rss_kb: f64,
    /// Operations attempted over all reps.
    pub attempted: u64,
    pub failures: Failures,
    /// The workload's own end-to-end figures (from untraced reps).
    pub named: Vec<Named>,
}

impl Outcome {
    /// Files one rep's timed-phase wall, the operations it completed
    /// and, where the rep built its own deployment, its set-up time. A
    /// warm-up rep's are dropped.
    pub fn record(&mut self, rep: Rep, setup_s: Option<f64>, wall_s: f64, ops: u64) {
        match rep {
            Rep::Warmup => return,
            Rep::Untraced => {
                self.work_s.push(wall_s);
                self.ops += ops;
            }
            Rep::Traced => self.traced_s.push(wall_s),
        }
        self.setup_s.extend(setup_s);
        if self.work_s.len() + self.traced_s.len() == MIN_MEASURED {
            self.peak_rss_kb = rss_kb("VmHWM:");
        }
    }

    /// Wall time per operation over the untraced reps, in µs: their
    /// total wall time over their total operations, the mean over reps.
    /// Contention from outside the process comes in phases of seconds,
    /// which makes rep times bimodal; the median of such a sample jumps
    /// between the modes, while the mean moves with the share of time
    /// spent in each.
    pub fn us_per_op(&self) -> f64 {
        self.work_s.iter().sum::<f64>() * 1e6 / self.ops.max(1) as f64
    }

    /// The process's peak resident memory after the warm-up and the
    /// first `MIN_MEASURED` reps: a fixed amount of work, so code fast
    /// enough to fit more reps into the budget (and fragment the heap
    /// further) does not read as using more memory.
    pub fn peak_rss_mb(&self) -> f64 {
        let kb = if self.peak_rss_kb > 0.0 {
            self.peak_rss_kb
        } else {
            rss_kb("VmHWM:")
        };
        kb / 1024.0
    }
}

/// Reps every run measures after its warm-up, whatever the budget.
pub const MIN_MEASURED: usize = 3;

/// What a rep is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rep {
    /// The run's first rep. It faults in the process's memory and fills
    /// the allocator's free lists, which makes it markedly slower than
    /// the reps after it, so no metric includes it. Its output is still
    /// checked.
    Warmup,
    Untraced,
    Traced,
}

impl Rep {
    pub fn traced(self) -> bool {
        self == Rep::Traced
    }
}

/// Past this the run stops starting reps, whatever its minimum, so it
/// ends well within the three minutes a run may take.
const HARD_CAP_S: f64 = 100.0;

/// Hands out reps until `--seconds` of the workload's time (set-up and
/// timed phases alike, warm-up included) is spent. A traced run
/// alternates traced and untraced reps, starting with a traced one, so
/// the two can be compared for the tracing overhead.
pub struct Budget {
    start: Instant,
    seconds: f64,
    traced_run: bool,
    reps: usize,
}

impl Budget {
    pub fn new(cfg: &Cfg) -> Self {
        Budget {
            start: Instant::now(),
            seconds: cfg.seconds,
            traced_run: cfg.traced,
            reps: 0,
        }
    }

    /// The next rep, while the budget lasts.
    pub fn next_rep(&mut self) -> Option<Rep> {
        let elapsed = self.start.elapsed().as_secs_f64();
        let owed = self.reps <= MIN_MEASURED && elapsed < HARD_CAP_S;
        if !owed && elapsed >= self.seconds {
            return None;
        }
        let rep = match self.reps {
            0 => Rep::Warmup,
            n if self.traced_run && !n.is_multiple_of(2) => Rep::Traced,
            _ => Rep::Untraced,
        };
        self.reps += 1;
        Some(rep)
    }

    /// Reps handed out so far.
    pub fn reps(&self) -> usize {
        self.reps
    }
}

/// The telemetry domain of one rep: recording only in traced reps.
pub fn telemetry(traced: bool) -> Telemetry {
    if traced {
        Telemetry::new()
    } else {
        Telemetry::off()
    }
}

/// A live deployment: network, wrapped controller cluster and (unless
/// Athena is off) the Athena instance whose SB elements are registered
/// wrapped, one per controller instance.
pub struct Live {
    pub topo: Topology,
    pub net: Network,
    pub link: LinkProbe<ControllerCluster>,
    pub athena: Option<Athena>,
}

impl Live {
    /// Builds the deployment. With telemetry on, the cluster is bound to
    /// the same handle as Athena, as `Athena::attach` would do.
    pub fn new(topo: Topology, with_athena: bool, tel: &Telemetry, probes: &Probes) -> Self {
        let net = Network::new(topo.clone());
        let mut cluster = ControllerCluster::new(&topo);
        let wrapped = wrap_processor(&mut cluster, "fwd", probes.apps.clone());
        assert!(
            wrapped,
            "ControllerCluster::new registers the `fwd` application"
        );
        if tel.is_enabled() {
            cluster.bind_telemetry(tel);
        }
        let athena = with_athena.then(|| {
            let athena = Athena::with_telemetry(AthenaConfig::default(), tel.clone());
            add_southbound(&athena, &mut cluster, probes);
            athena
        });
        Live {
            topo,
            net,
            link: LinkProbe::new(cluster, probes.link.clone()),
            athena,
        }
    }

    pub fn athena(&self) -> &Athena {
        self.athena.as_ref().expect("this workload deploys Athena")
    }

    /// Advances the simulation to `secs` of virtual time.
    pub fn run_until_secs(&mut self, secs: u64) {
        self.net
            .run_until(athena_types::SimTime::from_secs(secs), &mut self.link);
    }
}

/// Registers one wrapped SB element per controller instance — what
/// `Athena::attach` does, with `Athena::southbound` wrapped.
pub fn add_southbound(athena: &Athena, cluster: &mut ControllerCluster, probes: &Probes) {
    for c in 0..cluster.instance_count() {
        let sb = athena.southbound(ControllerId::new(c as u32));
        cluster.add_interceptor(Box::new(SbProbe::new(
            sb,
            probes.sb.clone(),
            probes.sb_totals.clone(),
        )));
    }
}

/// Moves every flow's start time `by` later.
pub fn shifted(mut flows: Vec<FlowSpec>, by: SimDuration) -> Vec<FlowSpec> {
    for f in &mut flows {
        f.start += by;
    }
    flows
}

/// Current and peak resident memory, in KB, from `/proc/self/status`.
pub fn rss_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0)
}

/// Seconds elapsed since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn us_per_op_is_the_mean_over_measured_untraced_reps() {
        let mut o = Outcome::default();
        o.record(Rep::Warmup, Some(9.0), 9.0, 10);
        o.record(Rep::Untraced, Some(1.0), 0.002, 100);
        o.record(Rep::Traced, Some(3.0), 5.0, 100);
        o.record(Rep::Untraced, Some(2.0), 0.004, 100);
        // (2 ms + 4 ms) over 200 operations; the warm-up and the traced
        // rep count for no time metric but set-up.
        assert!((o.us_per_op() - 30.0).abs() < 1e-9);
        assert_eq!(o.work_s, vec![0.002, 0.004]);
        assert_eq!(o.setup_s, vec![1.0, 3.0, 2.0]);
        assert_eq!(o.traced_s, vec![5.0]);
    }
}
