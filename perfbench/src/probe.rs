//! Wrappers around the seams the benchmark controls. Each forwards every
//! trait method to the wrapped value and, when given a [`Span`], adds the
//! wall time spent inside it. No timer is placed inside a crate.

use athena_controller::{InterceptCtx, MessageInterceptor, PacketContext, PacketProcessor};
use athena_core::AthenaSouthbound;
use athena_dataplane::ControllerLink;
use athena_openflow::OfMessage;
use athena_types::{Dpid, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Wall time and call count accumulated at one seam.
#[derive(Debug, Default)]
pub struct Span {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    fn add(&self, since: Instant) {
        self.ns
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }
}

/// Runs `f`, charging its wall time to `span` when there is one (the
/// untraced run passes `None` and reads no clock).
fn timed<R>(span: &Option<Arc<Span>>, f: impl FnOnce() -> R) -> R {
    match span {
        None => f(),
        Some(s) => {
            let t = Instant::now();
            let r = f();
            s.add(t);
            r
        }
    }
}

/// The data plane's controller, wrapped.
pub struct LinkProbe<L> {
    pub inner: L,
    span: Option<Arc<Span>>,
    unanswered: u64,
}

impl<L: ControllerLink> LinkProbe<L> {
    pub fn new(inner: L, span: Option<Arc<Span>>) -> Self {
        LinkProbe {
            inner,
            span,
            unanswered: 0,
        }
    }

    /// Packet-ins delivered through `on_message` that got no flow-mod
    /// back.
    pub fn unanswered(&self) -> u64 {
        self.unanswered
    }
}

impl<L: ControllerLink> ControllerLink for LinkProbe<L> {
    fn on_message(&mut self, from: Dpid, msg: OfMessage, now: SimTime) -> Vec<(Dpid, OfMessage)> {
        let is_packet_in = matches!(msg, OfMessage::PacketIn { .. });
        let inner = &mut self.inner;
        let out = timed(&self.span, || inner.on_message(from, msg, now));
        if is_packet_in
            && !out
                .iter()
                .any(|(_, m)| matches!(m, OfMessage::FlowMod { .. }))
        {
            self.unanswered += 1;
        }
        out
    }

    fn on_tick(&mut self, now: SimTime) -> Vec<(Dpid, OfMessage)> {
        let inner = &mut self.inner;
        timed(&self.span, || inner.on_tick(now))
    }

    // `ControllerCluster` overrides the batch path; the trait default
    // would silently replace it with a per-message loop.
    fn on_packet_in_batch(
        &mut self,
        batch: Vec<(Dpid, OfMessage)>,
        now: SimTime,
    ) -> Vec<(Dpid, OfMessage)> {
        let inner = &mut self.inner;
        timed(&self.span, || inner.on_packet_in_batch(batch, now))
    }
}

/// What the SB wrappers of one deployment report, summed over instances.
#[derive(Debug, Default)]
pub struct SbTotals {
    records: AtomicU64,
    gave_up: AtomicU64,
}

impl SbTotals {
    /// Feature records the SB elements generated.
    pub fn records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// Marked statistics polls the SB elements gave up on.
    pub fn gave_up(&self) -> u64 {
        self.gave_up.load(Ordering::Relaxed)
    }
}

/// One Athena SB element, wrapped. Besides timing it mirrors the
/// element's record and retry counters into shared [`SbTotals`], since
/// the element itself is owned by the controller cluster.
pub struct SbProbe {
    inner: AthenaSouthbound,
    span: Option<Arc<Span>>,
    totals: Arc<SbTotals>,
    seen_records: u64,
    seen_gave_up: u64,
}

impl SbProbe {
    pub fn new(inner: AthenaSouthbound, span: Option<Arc<Span>>, totals: Arc<SbTotals>) -> Self {
        SbProbe {
            inner,
            span,
            totals,
            seen_records: 0,
            seen_gave_up: 0,
        }
    }

    fn publish(&mut self) {
        let records = self.inner.records_generated();
        let gave_up = self.inner.retry_counters().gave_up;
        self.totals
            .records
            .fetch_add(records - self.seen_records, Ordering::Relaxed);
        self.totals
            .gave_up
            .fetch_add(gave_up - self.seen_gave_up, Ordering::Relaxed);
        self.seen_records = records;
        self.seen_gave_up = gave_up;
    }
}

impl MessageInterceptor for SbProbe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_southbound(
        &mut self,
        ctx: &InterceptCtx<'_>,
        from: Dpid,
        msg: &OfMessage,
        now: SimTime,
    ) -> Vec<(Dpid, OfMessage)> {
        let inner = &mut self.inner;
        let out = timed(&self.span, || inner.on_southbound(ctx, from, msg, now));
        self.publish();
        out
    }

    fn on_tick(&mut self, ctx: &InterceptCtx<'_>, now: SimTime) -> Vec<(Dpid, OfMessage)> {
        let inner = &mut self.inner;
        let out = timed(&self.span, || inner.on_tick(ctx, now));
        self.publish();
        out
    }
}

/// A network application, wrapped.
pub struct ProcProbe {
    inner: Box<dyn PacketProcessor>,
    span: Option<Arc<Span>>,
}

impl ProcProbe {
    pub fn new(inner: Box<dyn PacketProcessor>, span: Option<Arc<Span>>) -> Self {
        ProcProbe { inner, span }
    }
}

impl PacketProcessor for ProcProbe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn priority(&self) -> i32 {
        self.inner.priority()
    }

    fn process(&mut self, ctx: &mut PacketContext<'_>) {
        let inner = &mut self.inner;
        timed(&self.span, || inner.process(ctx));
    }

    fn on_tick(&mut self, now: SimTime) {
        let inner = &mut self.inner;
        timed(&self.span, || inner.on_tick(now));
    }
}

/// Stand-in left in a processor slot for the instant its occupant is
/// moved into a [`ProcProbe`].
struct Vacant;

impl PacketProcessor for Vacant {
    fn name(&self) -> &str {
        "vacant"
    }

    fn process(&mut self, _ctx: &mut PacketContext<'_>) {}
}

/// Wraps the cluster's processor named `name` in place (keeping its
/// position in the priority order). Returns whether it was found.
pub fn wrap_processor(
    cluster: &mut athena_controller::ControllerCluster,
    name: &str,
    span: Option<Arc<Span>>,
) -> bool {
    let Some(slot) = cluster.processor_mut(name) else {
        return false;
    };
    let inner = std::mem::replace(slot, Box::new(Vacant));
    *slot = Box::new(ProcProbe::new(inner, span));
    true
}
