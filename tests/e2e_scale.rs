//! Fat-tree determinism e2e: the same seeded scenario run twice through
//! `Network` must produce byte-identical counters, flow tables,
//! controller installs, and active-flow sets.
//!
//! Two scenarios cover the interesting regimes on a fat-tree (ECMP
//! multipath) fabric:
//!   1. a DDoS flood layered over benign background traffic — the
//!      packet-in path, flow-table churn, and congestion crediting all
//!      run hot;
//!   2. a chaos schedule (switch wipe, reboot, link degradation and
//!      recovery) applied mid-run at fixed virtual times — the reactive
//!      re-install and timing-wheel re-arm paths run under topology
//!      damage.

use athena::dataplane::workload::{self, DdosParams};
use athena::dataplane::{FlowSpec, LearningControllerStub, Network, Topology};
use athena::telemetry::Telemetry;
use athena::types::{Dpid, SimDuration, SimTime};

/// k=4 fat-tree with 6 hosts per edge switch: 20 switches, 48 hosts,
/// every inter-pod pair has multiple equal-cost paths (real ECMP
/// fan-out, unlike a linear chain).
fn fabric() -> Topology {
    Topology::fat_tree_with_hosts(4, 6)
}

/// Everything a run produces, flattened to one comparable string:
/// engine counters, controller installs, the active-flow set, and every
/// switch's flow-table size.
fn digest(net: &Network, ctrl: &LearningControllerStub) -> String {
    let mut tables = String::new();
    for s in &net.topology().switches {
        if let Some(sw) = net.switch(s.dpid) {
            tables.push_str(&format!("{}:{};", s.dpid.raw(), sw.flow_count()));
        }
    }
    format!(
        "{:?}|installs={}|active={}|{tables}",
        net.counters(),
        ctrl.installs(),
        net.active_flows().len(),
    )
}

/// DDoS flood over benign background on the fat-tree fabric.
fn ddos_flows(topo: &Topology) -> Vec<FlowSpec> {
    let mut flows = workload::benign_mix_on(topo, 120, SimDuration::from_secs(10), 20170610);
    let victim = topo.hosts[topo.hosts.len() / 2].ip;
    flows.extend(workload::ddos_flood(
        topo,
        victim,
        DdosParams {
            n_flows: 150,
            n_bots: 12,
            total_rate_bps: 200_000_000,
            start: SimTime::from_secs(3),
            duration: SimDuration::from_secs(8),
        },
        42,
    ));
    flows
}

/// Runs the DDoS scenario to completion and returns its digest; with
/// `check_names`, also binds telemetry and checks the emitted keys.
fn run_ddos(check_names: bool) -> String {
    let topo = fabric();
    let mut net = Network::new(topo.clone());
    let tel = Telemetry::new();
    if check_names {
        net.bind_telemetry(&tel);
    }
    let mut ctrl = LearningControllerStub::for_topology(topo);
    net.inject_flows(ddos_flows(net.topology()));
    net.run_until(SimTime::from_secs(14), &mut ctrl);
    if check_names {
        net.flush_gauges();
        // Every key the engine emits is declared in the telemetry
        // registry (dataplane/wheel_* included).
        assert_eq!(
            athena::telemetry::names::undeclared(&tel.report()),
            Vec::<String>::new()
        );
    }
    digest(&net, &ctrl)
}

/// Runs the chaos scenario: fixed virtual-time schedule of switch and
/// link damage, interleaved with the engine's own expiry and routing.
fn run_chaos() -> String {
    let topo = fabric();
    let mut net = Network::new(topo.clone());
    let mut ctrl = LearningControllerStub::for_topology(topo);
    let flows = workload::benign_mix_on(net.topology(), 180, SimDuration::from_secs(14), 7_701_001);
    net.inject_flows(flows);
    // Fat-tree k=4 dpids: pod p owns p*4+1..=p*4+4 (edges then aggs),
    // cores start at 17. So 1 = pod-0 edge, 3 = pod-0 agg (1-3 is a
    // real edge-agg link), 5/6 = pod-1 edges.
    net.run_until(SimTime::from_secs(4), &mut ctrl);
    assert!(net.wipe_switch(Dpid::new(5)) > 0, "pod-1 edge had flows");
    assert!(net.set_link_state(Dpid::new(1), Dpid::new(3), 0.25) > 0);
    net.run_until(SimTime::from_secs(7), &mut ctrl);
    net.reboot_switch(Dpid::new(6));
    assert!(net.set_link_state(Dpid::new(1), Dpid::new(3), 1.0) > 0);
    net.run_until(SimTime::from_secs(10), &mut ctrl);
    assert!(net.wipe_switch(Dpid::new(17)) > 0, "core had flows");
    let before = net.delivered_bytes();
    net.run_until(SimTime::from_secs(16), &mut ctrl);
    assert!(net.delivered_bytes() > before, "traffic recovers");
    digest(&net, &ctrl)
}

#[test]
fn ddos_on_fat_tree_is_byte_identical_across_reruns() {
    let reference = run_ddos(true);
    assert!(
        reference.contains("packet_ins"),
        "digest carries the counter block: {reference}"
    );
    assert_eq!(run_ddos(false), reference, "DDoS rerun diverged");
}

#[test]
fn chaos_schedule_is_byte_identical_across_reruns() {
    let reference = run_chaos();
    assert_eq!(run_chaos(), reference, "chaos rerun diverged");
}
