//! The wrappers must not change the program: a wrapped deployment emits
//! the same commands and counters as an unwrapped one.

use crate::layers::Probes;
use crate::workloads::{cbench, Live};
use athena_controller::ControllerCluster;
use athena_core::{Athena, AthenaConfig};
use athena_dataplane::{workload, ControllerLink, Network, Topology};
use athena_openflow::OfMessage;
use athena_telemetry::{names, Telemetry};
use athena_types::{Dpid, SimDuration, SimTime};

/// Forwards `on_message`/`on_tick` and logs every returned command.
struct Recorder<'a, L> {
    inner: &'a mut L,
    log: Vec<(Dpid, OfMessage)>,
}

impl<L: ControllerLink> ControllerLink for Recorder<'_, L> {
    fn on_message(&mut self, from: Dpid, msg: OfMessage, now: SimTime) -> Vec<(Dpid, OfMessage)> {
        let out = self.inner.on_message(from, msg, now);
        self.log.extend(out.iter().cloned());
        out
    }

    fn on_tick(&mut self, now: SimTime) -> Vec<(Dpid, OfMessage)> {
        let out = self.inner.on_tick(now);
        self.log.extend(out.iter().cloned());
        out
    }
}

fn traffic(topo: &Topology) -> Vec<athena_dataplane::FlowSpec> {
    let victim = topo.hosts[0].ip;
    let mut flows = workload::benign_mix_on(topo, 60, SimDuration::from_secs(20), 7);
    flows.extend(workload::ddos_flood(
        topo,
        victim,
        workload::DdosParams {
            start: SimTime::from_secs(5),
            duration: SimDuration::from_secs(10),
            n_flows: 80,
            ..workload::DdosParams::default()
        },
        8,
    ));
    flows
}

#[test]
fn wrapped_deployment_matches_attach() {
    let topo = Topology::enterprise();
    let until = SimTime::from_secs(25);

    // Unwrapped: the deployment every e2e test builds.
    let mut net = Network::new(topo.clone());
    let mut cluster = ControllerCluster::new(&topo);
    let athena = Athena::new(AthenaConfig::default());
    athena.attach(&mut cluster);
    net.inject_flows(traffic(&topo));
    let mut rec = Recorder {
        inner: &mut cluster,
        log: Vec::new(),
    };
    net.run_until(until, &mut rec);
    let plain_log = rec.log;

    // Wrapped, with every span on.
    let probes = Probes::new(true);
    let mut live = Live::new(topo.clone(), true, &Telemetry::off(), &probes);
    live.net.inject_flows(traffic(&topo));
    let mut rec = Recorder {
        inner: &mut live.link,
        log: Vec::new(),
    };
    live.net.run_until(until, &mut rec);
    let wrapped_log = rec.log;

    assert!(!plain_log.is_empty());
    assert_eq!(plain_log, wrapped_log);
    assert_eq!(net.counters(), live.net.counters());
    assert_eq!(cluster.counters(), live.link.inner.counters());
    assert_eq!(
        athena.stored_feature_count(),
        live.athena().stored_feature_count()
    );
    assert!(probes.sb_totals.records() > 0);
    // The wrappers answer to the wrapped names, and they did time work.
    assert!(live.link.inner.interceptor_mut("athena-sb-0").is_some());
    assert!(live.link.inner.processor_mut("fwd").is_some());
    for span in [&probes.link, &probes.sb, &probes.apps] {
        assert!(span.as_ref().is_some_and(|s| s.calls() > 0));
    }
}

#[test]
fn batch_path_reaches_the_cluster_override() {
    let topo = Topology::enterprise();
    let batch = cbench::inputs(&topo, 3, 1, 5);

    let tel = Telemetry::new();
    let (_a, mut plain) = cbench::deploy(&topo, &tel, &Probes::new(false));
    let expected = plain.inner.on_packet_in_batch(batch.clone(), SimTime::ZERO);

    let tel = Telemetry::new();
    let probes = Probes::new(true);
    let (_b, mut wrapped) = cbench::deploy(&topo, &tel, &probes);
    let got = wrapped.on_packet_in_batch(batch, SimTime::ZERO);
    assert_eq!(expected, got);
    // The cluster's batch override records one latency sample per batch;
    // the trait's per-message default would record five.
    let samples = tel
        .metrics()
        .histogram(
            names::controller::SUBSYSTEM,
            names::controller::PACKET_IN_NS,
        )
        .snapshot()
        .count;
    assert_eq!(samples, 1);
    assert_eq!(probes.link.as_ref().map(|s| s.calls()), Some(1));
}
