//! Property-based equivalence of wheel-driven expiry and the naive
//! per-tick full-table scan, the test-only oracle kept in [`Network`]:
//! same FLOW_REMOVED stream (order included), same counters, same
//! surviving flow-table state — on arbitrary workloads.

use crate::{ControllerLink, FlowSpec, LearningControllerStub, Network, TimingWheel, Topology};
use athena_openflow::OfMessage;
use athena_types::{Dpid, FiveTuple, SimDuration, SimTime};
use proptest::prelude::*;

/// Wraps the learning stub and records every FLOW_REMOVED it sees, in
/// arrival order — the byte stream the differential compares.
struct RemovalRecorder {
    inner: LearningControllerStub,
    removed: Vec<(Dpid, String)>,
}

impl ControllerLink for RemovalRecorder {
    fn on_message(&mut self, from: Dpid, msg: OfMessage, now: SimTime) -> Vec<(Dpid, OfMessage)> {
        if let OfMessage::FlowRemoved { body, .. } = &msg {
            self.removed.push((from, format!("{body:?}")));
        }
        self.inner.on_message(from, msg, now)
    }
}

fn arb_flow(topo: &Topology) -> impl Strategy<Value = FlowSpec> + use<> {
    let hosts = topo.hosts.clone();
    (
        0..hosts.len(),
        0..hosts.len(),
        0u64..6,
        1u64..8,
        100_000u64..10_000_000,
    )
        .prop_filter_map("distinct endpoints", move |(s, d, start, dur, rate)| {
            if s == d {
                return None;
            }
            let ft = FiveTuple::tcp(hosts[s].ip, (9_000 + s * 97 + d) as u16, hosts[d].ip, 80);
            Some(FlowSpec::new(
                ft,
                SimTime::from_secs(start),
                SimDuration::from_secs(dur),
                rate,
            ))
        })
}

/// Runs the same workload with wheel (`scan == false`) or scan expiry
/// and returns everything expiry can influence.
fn run_mode(
    topo: &Topology,
    flows: &[FlowSpec],
    idle_secs: u64,
    scan: bool,
) -> (Vec<(Dpid, String)>, String, Vec<usize>) {
    let mut net = Network::new(topo.clone());
    net.scan_expiry = scan;
    let mut ctrl = RemovalRecorder {
        inner: LearningControllerStub::new(&net),
        removed: Vec::new(),
    };
    ctrl.inner.idle_timeout = SimDuration::from_secs(idle_secs);
    net.inject_flows(flows.to_vec());
    net.run_until(SimTime::from_secs(30), &mut ctrl);
    let tables: Vec<usize> = topo
        .switches
        .iter()
        .filter_map(|s| net.switch(s.dpid))
        .map(|sw| sw.flow_count())
        .collect();
    (ctrl.removed, format!("{:?}", net.counters()), tables)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Wheel-driven expiry fires the exact FLOW_REMOVED stream the naive
    /// per-tick scan produces — same notifications, same order, same
    /// final counters and table occupancy.
    #[test]
    fn wheel_matches_naive_scan(
        flows in proptest::collection::vec(arb_flow(&Topology::linear(4, 2)), 1..12),
        idle_secs in 1u64..6,
    ) {
        let topo = Topology::linear(4, 2);
        let wheel = run_mode(&topo, &flows, idle_secs, false);
        let scan = run_mode(&topo, &flows, idle_secs, true);
        prop_assert!(!wheel.0.is_empty(), "short idle timeouts must expire");
        prop_assert_eq!(&wheel.0, &scan.0, "FLOW_REMOVED streams diverge");
        prop_assert_eq!(&wheel.1, &scan.1, "counters diverge");
        prop_assert_eq!(&wheel.2, &scan.2, "table occupancy diverges");
    }

    /// The raw wheel fires exactly what a naive deadline list would, in
    /// (due, key) order, under arbitrary schedule/advance interleavings.
    #[test]
    fn wheel_fires_in_naive_scan_order(
        ops in proptest::collection::vec((0u64..5_000, 0u16..64, 1u64..200), 1..120),
    ) {
        let mut wheel = TimingWheel::new(0);
        // Reference: pending (due, key) deadlines, lazily deduplicated
        // exactly like the wheel (earliest wins; later ones spurious).
        let mut pending: Vec<(u64, u16)> = Vec::new();
        let mut now = 0u64;
        for (due_off, key, adv) in ops {
            // schedule() clamps to the next firable tick.
            let due = (now + due_off).max(wheel.now() + 1);
            wheel.schedule(now + due_off, key);
            // Every scheduled entry fires — duplicates included (lazy
            // cancellation surfaces them as spurious fires).
            pending.push((due, key));
            now += adv;
            let fired = wheel.advance(now);
            let mut expect: Vec<(u64, u16)> = pending
                .iter()
                .copied()
                .filter(|(d, _)| *d <= now)
                .collect();
            expect.sort_unstable();
            pending.retain(|(d, _)| *d > now);
            prop_assert_eq!(fired, expect, "fire order diverged at t={}", now);
        }
    }
}
