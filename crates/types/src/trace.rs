//! Miss-journey tracing: per-request stage records and a Chrome
//! trace-event exporter.
//!
//! A [`TraceSink`] collects three kinds of evidence while the simulator
//! runs, all stamped in core-clock cycles:
//!
//! - [`MissJourney`] records — one per delivered demand miss, carrying
//!   the cycle it crossed every subsystem boundary (ROB → ring → LLC →
//!   MC queue → DRAM → fill return) so per-stage deltas can be computed
//!   exactly;
//! - span events on component tracks (core ROB stalls, DRAM bank
//!   service windows, EMC context occupancy, chain ships);
//! - counter events (queue depths, outstanding misses) sampled by the
//!   time-series sampler.
//!
//! The sink is **disabled by default** and every recording method
//! early-returns on a single branch in that state, so an untraced run
//! pays nothing beyond one predictable-not-taken branch per call site.
//!
//! [`TraceSink::write_chrome_trace`] renders everything in Chrome
//! trace-event JSON (the `traceEvents` array format), loadable directly
//! in Perfetto or `chrome://tracing`. One thread track is emitted per
//! core, LLC slice, memory controller, DRAM bank and EMC context;
//! journeys appear as nestable async slices on their home core's track.
//! Timestamps map 1 cycle → 1 µs (the formats have no unitless time).

use crate::req::{MemReq, ReqId};
use crate::{CoreId, Cycle, MetricSample};
use std::collections::HashMap;
use std::io::{self, Write};

/// Default cap on buffered trace events before the sink starts
/// dropping (and counting) new ones: bounds memory on long runs.
pub const DEFAULT_TRACE_CAP: usize = 2_000_000;

/// A component timeline in the exported trace (one Perfetto track each).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceTrack {
    /// A core pipeline (ROB stalls, chain ships, miss journeys).
    Core(CoreId),
    /// An LLC slice.
    LlcSlice(usize),
    /// A memory controller (queue-depth counters).
    Mc(usize),
    /// One DRAM bank behind a memory controller.
    Bank {
        /// Owning memory controller.
        mc: usize,
        /// DDR3 channel index (global).
        channel: usize,
        /// Bank index within the channel.
        bank: usize,
    },
    /// An EMC issue context.
    EmcCtx {
        /// Which memory controller's EMC.
        mc: usize,
        /// Context slot index.
        ctx: usize,
    },
    /// The ring interconnect (link-utilization counters).
    Ring,
}

impl TraceTrack {
    /// Human-readable track label shown in the trace viewer.
    pub fn label(&self) -> String {
        match self {
            TraceTrack::Core(c) => format!("core {c}"),
            TraceTrack::LlcSlice(s) => format!("llc slice {s}"),
            TraceTrack::Mc(m) => format!("mc {m}"),
            TraceTrack::Bank { mc, channel, bank } => {
                format!("mc {mc} ch {channel} bank {bank}")
            }
            TraceTrack::EmcCtx { mc, ctx } => format!("emc {mc} ctx {ctx}"),
            TraceTrack::Ring => "ring".to_string(),
        }
    }

    /// Stable ordering key so exported traces list tracks in a fixed,
    /// readable order regardless of first-use order.
    fn sort_key(&self) -> (u8, usize, usize, usize) {
        match *self {
            TraceTrack::Core(c) => (0, c, 0, 0),
            TraceTrack::LlcSlice(s) => (1, s, 0, 0),
            TraceTrack::Mc(m) => (2, m, 0, 0),
            TraceTrack::Bank { mc, channel, bank } => (3, mc, channel, bank),
            TraceTrack::EmcCtx { mc, ctx } => (4, mc, ctx, 0),
            TraceTrack::Ring => (5, 0, 0, 0),
        }
    }
}

/// One buffered trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A complete span (`ph: "X"`): a named interval on one track.
    Span {
        /// Track it belongs to.
        track: TraceTrack,
        /// Span name.
        name: &'static str,
        /// Start cycle.
        start: Cycle,
        /// Duration in cycles (0-length spans are given 1 so viewers
        /// render them).
        dur: Cycle,
        /// Extra key/value detail shown in the viewer's args pane.
        args: Vec<(&'static str, u64)>,
    },
    /// A nestable async begin (`ph: "b"`), paired by `id`.
    AsyncBegin {
        /// Track it belongs to.
        track: TraceTrack,
        /// Slice name.
        name: &'static str,
        /// Pairing id (unique per journey).
        id: u64,
        /// Begin cycle.
        ts: Cycle,
        /// Extra key/value detail.
        args: Vec<(&'static str, u64)>,
    },
    /// A nestable async end (`ph: "e"`), paired by `id`.
    AsyncEnd {
        /// Track it belongs to.
        track: TraceTrack,
        /// Slice name (must match the begin).
        name: &'static str,
        /// Pairing id.
        id: u64,
        /// End cycle.
        ts: Cycle,
    },
    /// A counter sample (`ph: "C"`): viewers draw these as area charts.
    Counter {
        /// Track it belongs to.
        track: TraceTrack,
        /// Counter name.
        name: &'static str,
        /// Sample cycle.
        ts: Cycle,
        /// Counter value.
        value: u64,
    },
}

impl TraceEvent {
    /// The track the event belongs to.
    pub fn track(&self) -> TraceTrack {
        match self {
            TraceEvent::Span { track, .. }
            | TraceEvent::AsyncBegin { track, .. }
            | TraceEvent::AsyncEnd { track, .. }
            | TraceEvent::Counter { track, .. } => *track,
        }
    }
}

/// The full per-request record of one demand miss: the cycle it crossed
/// each subsystem boundary, assembled at delivery time from the
/// request's [`ReqTimeline`](crate::ReqTimeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissJourney {
    /// The memory request this journey describes.
    pub req: ReqId,
    /// Core the miss belongs to (home core for EMC-issued requests).
    pub core: CoreId,
    /// Whether the EMC issued the request (the paper's fast path).
    pub emc: bool,
    /// Physical line address.
    pub line: u64,
    /// Cycle the request was created.
    pub created: Cycle,
    /// Arrival at the LLC slice (None when the EMC bypassed the LLC).
    pub llc_arrive: Option<Cycle>,
    /// Entry into the memory-controller queue.
    pub mc_enqueue: Option<Cycle>,
    /// First DRAM command issue.
    pub dram_issue: Option<Cycle>,
    /// Data return from DRAM.
    pub dram_done: Option<Cycle>,
    /// Cycle the data became consumable by the requester.
    pub delivered: Cycle,
    /// Whether the DRAM access hit the open row (None if it never
    /// touched DRAM).
    pub row_hit: Option<bool>,
}

impl MissJourney {
    /// The journey of `req`, whose data is consumable at `delivered`:
    /// its timeline, under its own `ReqId`.
    pub fn new(req: &MemReq, delivered: Cycle) -> Self {
        let t = req.timeline;
        MissJourney {
            req: req.id,
            core: req.requester.home_core(),
            emc: req.requester.is_emc(),
            line: req.line.0,
            created: t.created,
            llc_arrive: t.llc_arrive,
            mc_enqueue: t.mc_enqueue,
            dram_issue: t.dram_issue,
            dram_done: t.dram_done,
            delivered,
            row_hit: t.row_hit,
        }
    }

    /// The journey broken into consecutive `(stage, start, end)`
    /// intervals. Stages whose boundary stamp is missing (e.g. the LLC
    /// for a direct-to-DRAM EMC request) are skipped; the next present
    /// stage then covers the elapsed interval.
    pub fn stages(&self) -> Vec<(&'static str, Cycle, Cycle)> {
        let mut out = Vec::with_capacity(5);
        let mut prev = self.created;
        let stamps = [
            ("to-llc", self.llc_arrive),
            ("to-mc", self.mc_enqueue),
            ("mc-queue", self.dram_issue),
            ("dram", self.dram_done),
            ("fill", Some(self.delivered)),
        ];
        for (name, stamp) in stamps {
            if let Some(t) = stamp {
                if t >= prev {
                    out.push((name, prev, t));
                    prev = t;
                }
            }
        }
        out
    }

    /// Total creation-to-delivery latency in cycles.
    pub fn total(&self) -> Cycle {
        self.delivered.saturating_sub(self.created)
    }
}

/// Collector for trace events and miss journeys.
///
/// Construct with [`TraceSink::disabled`] (the default, free) or
/// [`TraceSink::enabled`]; check [`TraceSink::is_enabled`] before doing
/// any work to build event arguments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSink {
    enabled: bool,
    cap: usize,
    events: Vec<TraceEvent>,
    journeys: Vec<MissJourney>,
    dropped: u64,
}

impl TraceSink {
    /// A sink that records nothing (every call is a single branch).
    pub fn disabled() -> Self {
        TraceSink::default()
    }

    /// An enabled sink with the default event cap.
    pub fn enabled() -> Self {
        Self::enabled_with_cap(DEFAULT_TRACE_CAP)
    }

    /// An enabled sink that buffers at most `cap` events (and journey
    /// records); beyond that it counts drops instead of growing.
    pub fn enabled_with_cap(cap: usize) -> Self {
        TraceSink {
            enabled: true,
            cap,
            events: Vec::new(),
            journeys: Vec::new(),
            dropped: 0,
        }
    }

    /// Whether the sink records anything. Call sites guard argument
    /// construction on this.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// Record a complete span on a track.
    #[inline]
    pub fn span(
        &mut self,
        track: TraceTrack,
        name: &'static str,
        start: Cycle,
        end: Cycle,
        args: Vec<(&'static str, u64)>,
    ) {
        if !self.enabled {
            return;
        }
        self.push(TraceEvent::Span {
            track,
            name,
            start,
            dur: end.saturating_sub(start),
            args,
        });
    }

    /// Record a counter sample on a track.
    #[inline]
    pub fn counter(&mut self, track: TraceTrack, name: &'static str, ts: Cycle, value: u64) {
        if !self.enabled {
            return;
        }
        self.push(TraceEvent::Counter {
            track,
            name,
            ts,
            value,
        });
    }

    /// Record `req`'s DRAM access as one span on the track of the bank
    /// that served it, `bank` of `channel` behind controller `mc`.
    pub fn dram_access(&mut self, mc: usize, channel: usize, bank: usize, req: &MemReq) {
        if !self.enabled {
            return;
        }
        let t = req.timeline;
        let (Some(issue), Some(done)) = (t.dram_issue, t.dram_done) else {
            return;
        };
        let name = if t.row_hit == Some(true) {
            "dram row hit"
        } else {
            "dram access"
        };
        let args = vec![
            ("req", req.id.0),
            ("row_hit", t.row_hit.map(u64::from).unwrap_or(0)),
        ];
        self.span(
            TraceTrack::Bank { mc, channel, bank },
            name,
            issue,
            done,
            args,
        );
    }

    /// Mirror a time-series sample onto counter tracks.
    pub fn sample_counters(&mut self, s: &MetricSample) {
        if !self.enabled {
            return;
        }
        let per_mc = [
            ("mc queue depth", &s.mc_queue_depth),
            ("banks open", &s.banks_open),
            ("emc busy contexts", &s.emc_busy_contexts),
        ];
        for (name, depths) in per_mc {
            for (m, &d) in depths.iter().enumerate() {
                self.counter(TraceTrack::Mc(m), name, s.cycle, u64::from(d));
            }
        }
        for (name, n) in [
            ("busy links", s.ring_busy_links),
            ("outstanding misses", s.outstanding_misses),
        ] {
            self.counter(TraceTrack::Ring, name, s.cycle, u64::from(n));
        }
        for (sl, &occ) in s.llc_occupancy.iter().enumerate() {
            let track = TraceTrack::LlcSlice(sl);
            self.counter(track, "occupancy permille", s.cycle, u64::from(occ));
        }
    }

    /// Record a finished miss journey: stores the record and emits one
    /// nestable async slice for the whole miss plus one child slice per
    /// stage, all on the home core's track.
    pub fn journey(&mut self, j: MissJourney) {
        if !self.enabled {
            return;
        }
        let track = TraceTrack::Core(j.core);
        let name = if j.emc { "emc-miss" } else { "miss" };
        let id = j.req.0;
        self.push(TraceEvent::AsyncBegin {
            track,
            name,
            id,
            ts: j.created,
            args: vec![
                ("req", j.req.0),
                ("line", j.line),
                ("total_cycles", j.total()),
                ("row_hit", j.row_hit.map(u64::from).unwrap_or(0)),
            ],
        });
        for (stage, start, end) in j.stages() {
            self.push(TraceEvent::AsyncBegin {
                track,
                name: stage,
                id,
                ts: start,
                args: vec![("cycles", end.saturating_sub(start))],
            });
            self.push(TraceEvent::AsyncEnd {
                track,
                name: stage,
                id,
                ts: end,
            });
        }
        self.push(TraceEvent::AsyncEnd {
            track,
            name,
            id,
            ts: j.delivered,
        });
        if self.journeys.len() < self.cap {
            self.journeys.push(j);
        } else {
            self.dropped += 1;
        }
    }

    /// The collected journey records.
    pub fn journeys(&self) -> &[MissJourney] {
        &self.journeys
    }

    /// The buffered trace events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events/journeys discarded after the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Write the buffered events as Chrome trace-event JSON (the
    /// `{"traceEvents": [...]}` form), loadable in Perfetto. Emits
    /// process/thread metadata so every [`TraceTrack`] appears under
    /// its human-readable label.
    pub fn write_chrome_trace<W: Write>(&self, mut w: W) -> io::Result<()> {
        // Assign stable tids by sorted track order.
        let mut tids: HashMap<TraceTrack, usize> = HashMap::new();
        for ev in &self.events {
            tids.entry(ev.track()).or_insert(0);
        }
        let mut tracks: Vec<TraceTrack> = tids.keys().copied().collect();
        tracks.sort_by_key(|t| t.sort_key());
        for (tid, t) in tracks.iter().enumerate() {
            tids.insert(*t, tid);
        }
        writeln!(w, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        write!(
            w,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{{\"name\":\"emcsim\"}}}}"
        )?;
        for (tid, t) in tracks.iter().enumerate() {
            write!(
                w,
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":{}}}}}",
                crate::json::JsonValue::Str(t.label()).to_json()
            )?;
        }
        for ev in &self.events {
            writeln!(w, ",")?;
            let tid = tids[&ev.track()];
            match ev {
                TraceEvent::Span {
                    name,
                    start,
                    dur,
                    args,
                    ..
                } => {
                    write!(
                        w,
                        "{{\"name\":\"{name}\",\"ph\":\"X\",\"pid\":0,\"tid\":{tid},\
                         \"ts\":{start},\"dur\":{}",
                        (*dur).max(1)
                    )?;
                    write_args(&mut w, args)?;
                }
                TraceEvent::AsyncBegin {
                    name, id, ts, args, ..
                } => {
                    write!(
                        w,
                        "{{\"name\":\"{name}\",\"cat\":\"journey\",\"ph\":\"b\",\
                         \"id\":{id},\"pid\":0,\"tid\":{tid},\"ts\":{ts}"
                    )?;
                    write_args(&mut w, args)?;
                }
                TraceEvent::AsyncEnd { name, id, ts, .. } => write!(
                    w,
                    "{{\"name\":\"{name}\",\"cat\":\"journey\",\"ph\":\"e\",\
                     \"id\":{id},\"pid\":0,\"tid\":{tid},\"ts\":{ts}}}"
                )?,
                TraceEvent::Counter {
                    name, ts, value, ..
                } => write!(
                    w,
                    "{{\"name\":\"{name}\",\"ph\":\"C\",\"pid\":0,\"tid\":{tid},\
                     \"ts\":{ts},\"args\":{{\"{name}\":{value}}}}}"
                )?,
            }
        }
        writeln!(w, "\n]}}")?;
        Ok(())
    }
}

/// Write `args` as the event's `"args"` object, if any, and close the
/// event.
fn write_args<W: Write>(w: &mut W, args: &[(&'static str, u64)]) -> io::Result<()> {
    if !args.is_empty() {
        write!(w, ",\"args\":{{")?;
        for (i, (k, v)) in args.iter().enumerate() {
            if i > 0 {
                write!(w, ",")?;
            }
            write!(w, "\"{k}\":{v}")?;
        }
        write!(w, "}}")?;
    }
    write!(w, "}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    fn sample_journey() -> MissJourney {
        MissJourney {
            req: ReqId(7),
            core: 1,
            emc: false,
            line: 0xabc,
            created: 100,
            llc_arrive: Some(110),
            mc_enqueue: Some(130),
            dram_issue: Some(150),
            dram_done: Some(200),
            delivered: 230,
            row_hit: Some(true),
        }
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let mut s = TraceSink::disabled();
        assert!(!s.is_enabled());
        s.span(TraceTrack::Ring, "x", 0, 10, vec![]);
        s.counter(TraceTrack::Mc(0), "depth", 5, 3);
        s.journey(sample_journey());
        assert!(s.events().is_empty());
        assert!(s.journeys().is_empty());
    }

    #[test]
    fn journey_stages_tile_the_interval() {
        let j = sample_journey();
        let stages = j.stages();
        assert_eq!(stages.len(), 5);
        assert_eq!(stages[0], ("to-llc", 100, 110));
        assert_eq!(stages[4], ("fill", 200, 230));
        // Consecutive and covering created..delivered.
        for w in stages.windows(2) {
            assert_eq!(w[0].2, w[1].1);
        }
        assert_eq!(stages.first().unwrap().1, j.created);
        assert_eq!(stages.last().unwrap().2, j.delivered);
        let sum: Cycle = stages.iter().map(|(_, s, e)| e - s).sum();
        assert_eq!(sum, j.total());
    }

    #[test]
    fn skipped_stamps_collapse_stages() {
        let j = MissJourney {
            llc_arrive: None, // direct-to-DRAM
            ..sample_journey()
        };
        let stages = j.stages();
        assert_eq!(stages.len(), 4);
        assert_eq!(stages[0], ("to-mc", 100, 130));
    }

    #[test]
    fn cap_counts_drops_instead_of_growing() {
        let mut s = TraceSink::enabled_with_cap(2);
        for i in 0..5 {
            s.span(TraceTrack::Ring, "x", i, i + 1, vec![]);
        }
        assert_eq!(s.events().len(), 2);
        assert_eq!(s.dropped(), 3);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_named_tracks() {
        let mut s = TraceSink::enabled();
        s.span(
            TraceTrack::Bank {
                mc: 0,
                channel: 1,
                bank: 3,
            },
            "dram",
            50,
            90,
            vec![("row_hit", 1)],
        );
        s.counter(TraceTrack::Mc(0), "queue_depth", 60, 12);
        s.journey(sample_journey());
        let mut buf = Vec::new();
        s.write_chrome_trace(&mut buf).expect("write");
        let text = String::from_utf8(buf).expect("utf8");
        let doc = JsonValue::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        // Metadata names every track.
        let labels: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some("thread_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert!(labels.contains(&"core 1"), "labels: {labels:?}");
        assert!(labels.contains(&"mc 0 ch 1 bank 3"));
        // Phases present: span, counter, async begin/end.
        for ph in ["X", "C", "b", "e"] {
            assert!(
                events
                    .iter()
                    .any(|e| e.get("ph").and_then(|p| p.as_str()) == Some(ph)),
                "missing ph {ph}"
            );
        }
    }

    #[test]
    fn track_labels_are_distinct_and_ordered() {
        let tracks = [
            TraceTrack::Core(0),
            TraceTrack::LlcSlice(0),
            TraceTrack::Mc(1),
            TraceTrack::Bank {
                mc: 0,
                channel: 0,
                bank: 0,
            },
            TraceTrack::EmcCtx { mc: 0, ctx: 2 },
            TraceTrack::Ring,
        ];
        let labels: std::collections::HashSet<String> = tracks.iter().map(|t| t.label()).collect();
        assert_eq!(labels.len(), tracks.len());
        let mut sorted = tracks.to_vec();
        sorted.sort_by_key(|t| t.sort_key());
        assert_eq!(sorted[0], TraceTrack::Core(0));
        assert_eq!(*sorted.last().unwrap(), TraceTrack::Ring);
    }
}
