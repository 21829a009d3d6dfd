//! The recorder trait, the default in-memory sink, and the cheap
//! [`Observer`] handle that instrumented layers carry.
//!
//! Layers never talk to a sink directly — they hold an [`Observer`],
//! which is either disabled (a `None`; every call returns immediately) or
//! an `Rc<RefCell<dyn Recorder>>` shared by every layer of one run. Each
//! track carries a monotonically advancing **cycle clock**: a kernel run
//! of `d` cycles calls [`Observer::place`], which stamps the span at the
//! track's current clock and advances it by `d`. Parallel tracks (one per
//! core) advance independently, which is exactly the shared-nothing
//! timing model of the multicore partitioner.

use crate::span::{ArgValue, CounterSample, Span, TrackId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// Something that accepts spans and counters.
///
/// The trait is deliberately small: implementations may stream to disk,
/// aggregate, or retain everything ([`TraceSink`]). Clock state lives
/// behind the trait so every layer sharing the recorder sees one
/// consistent cycle domain per track.
pub trait Recorder: fmt::Debug {
    /// Records one completed span.
    fn record_span(&mut self, span: Span);
    /// Records one counter observation.
    fn record_counter(&mut self, sample: CounterSample);
    /// Current cycle clock of a track (0 if never advanced).
    fn clock(&self, track: TrackId) -> u64;
    /// Advances a track's clock by `cycles`; returns the clock *before*
    /// the advance (the natural span start).
    fn advance(&mut self, track: TrackId, cycles: u64) -> u64;
}

/// The default recorder: retains every span and counter in memory.
#[derive(Debug, Default)]
pub struct TraceSink {
    /// All recorded spans, in recording order.
    pub spans: Vec<Span>,
    /// All recorded counter samples, in recording order.
    pub counters: Vec<CounterSample>,
    clocks: HashMap<TrackId, u64>,
}

impl TraceSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        TraceSink::default()
    }

    /// All tracks that appear in the trace, sorted for determinism.
    pub fn tracks(&self) -> Vec<TrackId> {
        let mut v: Vec<TrackId> = self
            .spans
            .iter()
            .map(|s| s.track)
            .chain(self.counters.iter().map(|c| c.track))
            .collect();
        v.sort();
        v.dedup();
        v
    }

    /// Sum of span durations on one track, counting only spans of the
    /// given category (top-level attribution: region/child spans overlap
    /// their parents, so callers pick one category to total).
    pub fn track_cycles(&self, track: TrackId, cat: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.track == track && s.cat == cat)
            .map(|s| s.dur)
            .sum()
    }

    /// Spans of one category, in recording order.
    pub fn spans_of<'a>(&'a self, cat: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.cat == cat)
    }

    /// Final value of a named counter on a track, if ever sampled.
    pub fn counter_value(&self, track: TrackId, name: &str) -> Option<f64> {
        self.counters
            .iter()
            .rev()
            .find(|c| c.track == track && c.name == name)
            .map(|c| c.value)
    }
}

impl Recorder for TraceSink {
    fn record_span(&mut self, span: Span) {
        self.spans.push(span);
    }

    fn record_counter(&mut self, sample: CounterSample) {
        self.counters.push(sample);
    }

    fn clock(&self, track: TrackId) -> u64 {
        self.clocks.get(&track).copied().unwrap_or(0)
    }

    fn advance(&mut self, track: TrackId, cycles: u64) -> u64 {
        let c = self.clocks.entry(track).or_insert(0);
        let start = *c;
        *c += cycles;
        start
    }
}

/// The handle instrumented layers carry.
///
/// Cloning is cheap (an `Option<Rc>` plus a track id); a disabled
/// observer is the default and makes every method a no-op. The carried
/// [`TrackId`] is the *default* track — [`Observer::on_track`] rebinds it
/// so e.g. the multicore partitioner can hand each simulated core its own
/// timeline while sharing one sink.
#[derive(Clone, Default)]
pub struct Observer {
    sink: Option<Rc<RefCell<dyn Recorder>>>,
    track: TrackId,
}

impl fmt::Debug for Observer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Observer")
            .field("enabled", &self.sink.is_some())
            .field("track", &self.track)
            .finish()
    }
}

impl Observer {
    /// The disabled observer: every call is a no-op.
    pub fn disabled() -> Self {
        Observer::default()
    }

    /// An enabled observer backed by a fresh in-memory [`TraceSink`].
    /// Returns the observer and the shared sink for later export.
    pub fn memory() -> (Self, Rc<RefCell<TraceSink>>) {
        let sink = Rc::new(RefCell::new(TraceSink::new()));
        let obs = Observer {
            sink: Some(sink.clone() as Rc<RefCell<dyn Recorder>>),
            track: TrackId::default(),
        };
        (obs, sink)
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The same observer bound to a different default track.
    pub fn on_track(&self, track: TrackId) -> Observer {
        Observer {
            sink: self.sink.clone(),
            track,
        }
    }

    /// Current cycle clock of the default track (0 when disabled).
    pub fn clock(&self) -> u64 {
        match &self.sink {
            Some(s) => s.borrow().clock(self.track),
            None => 0,
        }
    }

    /// Advances the default track's clock without recording a span
    /// (e.g. host-side waits already attributed elsewhere). Returns the
    /// pre-advance clock.
    pub fn advance(&self, cycles: u64) -> u64 {
        match &self.sink {
            Some(s) => s.borrow_mut().advance(self.track, cycles),
            None => 0,
        }
    }

    /// Records a span of `dur` cycles at the default track's current
    /// clock and advances the clock past it. Returns the span's start.
    pub fn place<F>(&self, name: &str, cat: &'static str, dur: u64, args: F) -> u64
    where
        F: FnOnce() -> Vec<(&'static str, ArgValue)>,
    {
        let Some(sink) = &self.sink else { return 0 };
        let mut s = sink.borrow_mut();
        let start = s.advance(self.track, dur);
        s.record_span(Span {
            track: self.track,
            name: name.to_string(),
            cat,
            start,
            dur,
            args: args(),
        });
        start
    }

    /// Records a span at an explicit `[start, start+dur)` interval
    /// without touching the clock (child/overlay spans: profile regions
    /// inside a kernel span, operator spans over core activity).
    pub fn span_at<F>(&self, name: &str, cat: &'static str, start: u64, dur: u64, args: F)
    where
        F: FnOnce() -> Vec<(&'static str, ArgValue)>,
    {
        let Some(sink) = &self.sink else { return };
        sink.borrow_mut().record_span(Span {
            track: self.track,
            name: name.to_string(),
            cat,
            start,
            dur,
            args: args(),
        });
    }

    /// Records a counter observation at the default track's current clock.
    pub fn counter(&self, name: &'static str, value: f64) {
        let Some(sink) = &self.sink else { return };
        let mut s = sink.borrow_mut();
        let cycle = s.clock(self.track);
        s.record_counter(CounterSample {
            track: self.track,
            name,
            cycle,
            value,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_observer_is_inert() {
        let obs = Observer::disabled();
        assert!(!obs.is_enabled());
        assert_eq!(obs.clock(), 0);
        assert_eq!(obs.advance(100), 0);
        assert_eq!(obs.place("x", "kernel", 10, Vec::new), 0);
        obs.counter("c", 1.0);
        // Nothing to assert against — the point is no panic, no state.
    }

    #[test]
    fn place_advances_the_track_clock() {
        let (obs, sink) = Observer::memory();
        let s0 = obs.place("a", "kernel", 100, Vec::new);
        let s1 = obs.place("b", "kernel", 50, Vec::new);
        assert_eq!((s0, s1), (0, 100));
        assert_eq!(obs.clock(), 150);
        let sink = sink.borrow();
        assert_eq!(sink.spans.len(), 2);
        assert_eq!(sink.track_cycles(TrackId::Core(0), "kernel"), 150);
    }

    #[test]
    fn tracks_are_independent() {
        let (obs, sink) = Observer::memory();
        obs.place("a", "kernel", 100, Vec::new);
        let core1 = obs.on_track(TrackId::Core(1));
        core1.place("b", "kernel", 30, Vec::new);
        assert_eq!(obs.clock(), 100);
        assert_eq!(core1.clock(), 30);
        let tracks = sink.borrow().tracks();
        assert_eq!(tracks, vec![TrackId::Core(0), TrackId::Core(1)]);
    }

    #[test]
    fn span_at_does_not_advance() {
        let (obs, sink) = Observer::memory();
        obs.span_at("region", "region", 5, 20, Vec::new);
        assert_eq!(obs.clock(), 0);
        assert_eq!(sink.borrow().spans[0].start, 5);
    }

    #[test]
    fn counters_stamp_the_current_clock() {
        let (obs, sink) = Observer::memory();
        obs.place("k", "kernel", 42, Vec::new);
        obs.counter("stall.ecc", 7.0);
        let sink = sink.borrow();
        assert_eq!(sink.counters[0].cycle, 42);
        assert_eq!(sink.counter_value(TrackId::Core(0), "stall.ecc"), Some(7.0));
    }

    #[test]
    fn lazy_args_are_not_built_when_disabled() {
        let obs = Observer::disabled();
        let mut built = false;
        obs.place("x", "kernel", 1, || {
            built = true;
            Vec::new()
        });
        assert!(!built, "disabled observer must not evaluate args");
    }
}
