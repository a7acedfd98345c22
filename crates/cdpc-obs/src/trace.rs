//! A Chrome-trace-event timeline builder.
//!
//! [`TraceProbe`] records probed events into a bounded buffer and renders
//! them in the Trace Event Format (the JSON Chrome's `about:tracing` and
//! Perfetto's <https://ui.perfetto.dev> load directly): one lane (`tid`)
//! per CPU carrying stall spans — L2 misses by class, prefetch waits, TLB
//! misses, page faults, recolorings — plus a dedicated bus lane carrying
//! every transaction's occupancy. Timestamps are simulated cycles reported
//! as microseconds, so "1 µs" in the viewer is one simulated cycle.
//!
//! Hint-table lookups are counted but *not* buffered: they happen on every
//! fault-path policy query and would drown the timeline.

use std::fmt::Write as _;

use crate::probe::{BusKind, HintOutcome, MissClassId, PrefetchDropReason, Probe};

/// The `tid` of the synthetic bus lane (CPU lanes use their index).
pub const BUS_LANE: u32 = 1000;

/// Default cap on buffered events (~32 MB of rendered JSON at worst).
pub const DEFAULT_CAPACITY: usize = 250_000;

#[derive(Debug, Clone, PartialEq)]
struct TraceEvent {
    /// Event name shown in the viewer.
    name: &'static str,
    /// Trace category (miss class, bus kind, ... ) for filtering.
    category: &'static str,
    /// Lane: CPU index, or [`BUS_LANE`].
    lane: u32,
    /// Start, simulated cycles.
    start_cycle: u64,
    /// Duration, simulated cycles (0 renders as an instant-like sliver).
    duration: u64,
    /// Extra `args` fields, pre-rendered as `key:value` JSON pairs.
    args: Vec<(&'static str, String)>,
}

/// A [`Probe`] that buffers events and renders a Chrome trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceProbe {
    events: Vec<TraceEvent>,
    capacity: usize,
    /// Events discarded after the buffer filled.
    dropped: u64,
    /// CPU lanes seen (for metadata naming), tracked as a max index.
    max_cpu: usize,
    bus_seen: bool,
    hint_lookups: u64,
    hint_hits: u64,
    observed: u64,
}

impl Default for TraceProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceProbe {
    /// A probe with the [default buffer cap](DEFAULT_CAPACITY).
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A probe buffering at most `capacity` events; further events are
    /// counted in [`dropped_events`](Self::dropped_events) but not stored.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            events: Vec::new(),
            capacity,
            dropped: 0,
            max_cpu: 0,
            bus_seen: false,
            hint_lookups: 0,
            hint_hits: 0,
            observed: 0,
        }
    }

    /// Events currently buffered.
    pub fn buffered_events(&self) -> usize {
        self.events.len()
    }

    /// Events discarded because the buffer was full.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// Hint-table lookups observed (counted, never buffered).
    pub fn hint_lookups(&self) -> (u64, u64) {
        (self.hint_lookups, self.hint_hits)
    }

    fn record(&mut self, event: TraceEvent) {
        self.observed += 1;
        if self.events.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        if event.lane == BUS_LANE {
            self.bus_seen = true;
        } else {
            self.max_cpu = self.max_cpu.max(event.lane as usize);
        }
        self.events.push(event);
    }

    /// Renders the buffer as a Trace Event Format document:
    /// `{"traceEvents":[...]}` with `"X"` (complete) events and `"M"`
    /// thread-name metadata, loadable by Perfetto unmodified.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let emit = |out: &mut String, first: &mut bool, body: &str| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push('\n');
            out.push_str(body);
        };

        // Lane-name metadata first, so viewers label lanes immediately.
        for cpu in 0..=self.max_cpu {
            emit(
                &mut out,
                &mut first,
                &format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{cpu},\
                     \"args\":{{\"name\":\"cpu{cpu}\"}}}}"
                ),
            );
        }
        if self.bus_seen {
            emit(
                &mut out,
                &mut first,
                &format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{BUS_LANE},\
                     \"args\":{{\"name\":\"bus\"}}}}"
                ),
            );
        }

        for e in &self.events {
            let mut body = format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{},\"dur\":{}",
                e.name, e.category, e.lane, e.start_cycle, e.duration
            );
            if !e.args.is_empty() {
                body.push_str(",\"args\":{");
                for (i, (k, v)) in e.args.iter().enumerate() {
                    if i > 0 {
                        body.push(',');
                    }
                    let _ = write!(body, "\"{k}\":{v}");
                }
                body.push('}');
            }
            body.push('}');
            emit(&mut out, &mut first, &body);
        }
        out.push_str("\n]}\n");
        out
    }
}

impl Probe for TraceProbe {
    fn on_l2_miss(&mut self, cpu: usize, cycle: u64, class: MissClassId, stall_cycles: u64) {
        self.record(TraceEvent {
            name: "l2-miss",
            category: class.label(),
            lane: cpu as u32,
            start_cycle: cycle,
            duration: stall_cycles,
            args: vec![("class", format!("\"{}\"", class.label()))],
        });
    }

    fn on_bus_transaction(
        &mut self,
        cycle: u64,
        kind: BusKind,
        queue_cycles: u64,
        occupancy_cycles: u64,
    ) {
        self.record(TraceEvent {
            name: kind.label(),
            category: "bus",
            lane: BUS_LANE,
            // The transaction occupies the bus after any queueing delay.
            start_cycle: cycle + queue_cycles,
            duration: occupancy_cycles,
            args: vec![("queue_cycles", queue_cycles.to_string())],
        });
    }

    fn on_tlb_miss(&mut self, cpu: usize, cycle: u64, vpn: u64) {
        self.record(TraceEvent {
            name: "tlb-miss",
            category: "tlb",
            lane: cpu as u32,
            start_cycle: cycle,
            duration: 0,
            args: vec![("vpn", vpn.to_string())],
        });
    }

    fn on_prefetch_issued(
        &mut self,
        cpu: usize,
        cycle: u64,
        line_addr: u64,
        slot_stall_cycles: u64,
    ) {
        self.record(TraceEvent {
            name: "prefetch",
            category: "prefetch",
            lane: cpu as u32,
            start_cycle: cycle,
            duration: slot_stall_cycles,
            args: vec![("line", line_addr.to_string())],
        });
    }

    fn on_prefetch_dropped(
        &mut self,
        cpu: usize,
        cycle: u64,
        line_addr: u64,
        reason: PrefetchDropReason,
    ) {
        self.record(TraceEvent {
            name: "prefetch-drop",
            category: reason.label(),
            lane: cpu as u32,
            start_cycle: cycle,
            duration: 0,
            args: vec![("line", line_addr.to_string())],
        });
    }

    fn on_page_fault(
        &mut self,
        cpu: usize,
        cycle: u64,
        vpn: u64,
        color: u32,
        outcome: HintOutcome,
    ) {
        self.record(TraceEvent {
            name: "page-fault",
            category: outcome.label(),
            lane: cpu as u32,
            start_cycle: cycle,
            duration: 0,
            args: vec![
                ("vpn", vpn.to_string()),
                ("color", color.to_string()),
                ("outcome", format!("\"{}\"", outcome.label())),
            ],
        });
    }

    fn on_hint_lookup(&mut self, _vpn: u64, hit: bool) {
        self.observed += 1;
        self.hint_lookups += 1;
        if hit {
            self.hint_hits += 1;
        }
    }

    fn on_recolor(&mut self, cpu: usize, cycle: u64, vpn: u64, from_color: u32, to_color: u32) {
        self.record(TraceEvent {
            name: "recolor",
            category: "recolor",
            lane: cpu as u32,
            start_cycle: cycle,
            duration: 0,
            args: vec![
                ("vpn", vpn.to_string()),
                ("from", from_color.to_string()),
                ("to", to_color.to_string()),
            ],
        });
    }

    fn event_count(&self) -> u64 {
        self.observed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    fn probe_with_activity() -> TraceProbe {
        let mut p = TraceProbe::new();
        p.on_l2_miss(0, 100, MissClassId::Conflict, 50);
        p.on_l2_miss(1, 120, MissClassId::Cold, 60);
        p.on_bus_transaction(100, BusKind::Data, 8, 40);
        p.on_tlb_miss(0, 90, 7);
        p.on_page_fault(1, 10, 3, 2, HintOutcome::Honored);
        p.on_recolor(0, 500, 3, 2, 5);
        p.on_hint_lookup(3, true);
        p
    }

    #[test]
    fn trace_is_valid_json_with_expected_lanes() {
        let p = probe_with_activity();
        let doc = JsonValue::parse(&p.to_chrome_trace()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // 2 CPU lanes + bus lane metadata, then 6 buffered events.
        assert_eq!(events.len(), 3 + 6);
        let meta: Vec<&JsonValue> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("M"))
            .collect();
        assert_eq!(meta.len(), 3);
        assert!(meta
            .iter()
            .any(|m| m.get("tid").unwrap().as_u64() == Some(BUS_LANE as u64)));
        let spans: Vec<&JsonValue> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .collect();
        assert_eq!(spans.len(), 6);
        for s in &spans {
            assert!(s.get("ts").is_some() && s.get("dur").is_some());
        }
    }

    #[test]
    fn bus_span_starts_after_queueing() {
        let p = probe_with_activity();
        let doc = JsonValue::parse(&p.to_chrome_trace()).unwrap();
        let bus = doc
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .find(|e| e.get("cat").map(|c| c.as_str()) == Some(Some("bus")))
            .unwrap();
        assert_eq!(bus.get("ts").unwrap().as_u64(), Some(108));
        assert_eq!(bus.get("dur").unwrap().as_u64(), Some(40));
    }

    #[test]
    fn capacity_cap_counts_drops() {
        let mut p = TraceProbe::with_capacity(2);
        for i in 0..5 {
            p.on_tlb_miss(0, i, i);
        }
        assert_eq!(p.buffered_events(), 2);
        assert_eq!(p.dropped_events(), 3);
        assert_eq!(p.event_count(), 5);
    }

    #[test]
    fn hint_lookups_counted_not_buffered() {
        let mut p = TraceProbe::new();
        p.on_hint_lookup(1, true);
        p.on_hint_lookup(2, false);
        assert_eq!(p.buffered_events(), 0);
        assert_eq!(p.hint_lookups(), (2, 1));
        assert_eq!(p.event_count(), 2);
    }

    #[test]
    fn empty_trace_is_still_loadable() {
        let p = TraceProbe::new();
        let doc = JsonValue::parse(&p.to_chrome_trace()).unwrap();
        // One metadata record for cpu0 (max_cpu starts at 0).
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 1);
    }
}
