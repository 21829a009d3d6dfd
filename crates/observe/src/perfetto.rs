//! Chrome-trace / Perfetto JSON exporter.
//!
//! Emits the legacy Chrome trace-event format (an object with a
//! `traceEvents` array), which <https://ui.perfetto.dev> and
//! `chrome://tracing` both load. The mapping:
//!
//! * every [`TrackId`](crate::TrackId) becomes one thread (`tid` from [`TrackId::tid`](crate::TrackId::tid))
//!   inside a single process, named via an `"M"` (metadata) event;
//! * every [`Span`](crate::Span) becomes an `"X"` (complete) event with `ts` = start
//!   cycle and `dur` = cycle count — cycles stand in for microseconds, so
//!   the viewer's time axis reads directly in cycles;
//! * every [`CounterSample`](crate::CounterSample) becomes a `"C"` event.
//!
//! Output is deterministic: metadata first (tracks sorted), then spans in
//! recording order, then counters in recording order. Two identical runs
//! serialize byte-identically.

use crate::json::Json;
use crate::recorder::TraceSink;
use crate::span::ArgValue;

/// The `pid` used for every event — the whole simulation is one process.
const PID: u64 = 1;

fn arg_json(v: &ArgValue) -> Json {
    match v {
        ArgValue::U64(n) => Json::Num(*n as f64),
        ArgValue::F64(n) => Json::Num(*n),
        ArgValue::Str(s) => Json::Str(s.clone()),
    }
}

/// Serializes a [`TraceSink`] as Chrome-trace JSON.
pub fn write_chrome_trace(sink: &TraceSink) -> String {
    let mut events = Vec::new();

    for track in sink.tracks() {
        events.push(Json::obj([
            ("name", Json::Str("thread_name".into())),
            ("ph", Json::Str("M".into())),
            ("pid", Json::Num(PID as f64)),
            ("tid", Json::Num(track.tid() as f64)),
            ("args", Json::obj([("name", Json::Str(track.label()))])),
        ]));
    }

    for span in &sink.spans {
        let mut fields = vec![
            ("name".to_string(), Json::Str(span.name.clone())),
            ("cat".to_string(), Json::Str(span.cat.to_string())),
            ("ph".to_string(), Json::Str("X".into())),
            ("ts".to_string(), Json::Num(span.start as f64)),
            ("dur".to_string(), Json::Num(span.dur as f64)),
            ("pid".to_string(), Json::Num(PID as f64)),
            ("tid".to_string(), Json::Num(span.track.tid() as f64)),
        ];
        if !span.args.is_empty() {
            fields.push((
                "args".to_string(),
                Json::Obj(
                    span.args
                        .iter()
                        .map(|(k, v)| (k.to_string(), arg_json(v)))
                        .collect(),
                ),
            ));
        }
        events.push(Json::Obj(fields));
    }

    for c in &sink.counters {
        events.push(Json::obj([
            ("name", Json::Str(c.name.to_string())),
            ("ph", Json::Str("C".into())),
            ("ts", Json::Num(c.cycle as f64)),
            ("pid", Json::Num(PID as f64)),
            ("tid", Json::Num(c.track.tid() as f64)),
            (
                "args",
                Json::Obj(vec![("value".to_string(), Json::Num(c.value))]),
            ),
        ]));
    }

    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ns".into())),
        (
            "otherData",
            Json::obj([
                ("clock_domain", Json::Str("simulated-cycles".into())),
                ("producer", Json::Str("dbx-observe".into())),
            ]),
        ),
    ])
    .to_string()
}

/// Validates that `text` is structurally a Chrome trace this crate could
/// have produced: parses, has a `traceEvents` array, and every event has
/// the mandatory fields for its phase. Returns the number of events.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing ph"))?;
        let need: &[&str] = match ph {
            "M" => &["name", "pid", "tid", "args"],
            "X" => &["name", "cat", "ts", "dur", "pid", "tid"],
            "C" => &["name", "ts", "pid", "tid", "args"],
            other => return Err(format!("event {i}: unexpected phase {other:?}")),
        };
        for key in need {
            if ev.get(key).is_none() {
                return Err(format!("event {i} (ph={ph}): missing field {key:?}"));
            }
        }
        if ph == "X" && ev.get("ts").and_then(Json::as_u64).is_none() {
            return Err(format!("event {i}: ts is not a non-negative integer"));
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Observer;
    use crate::span::TrackId;

    #[test]
    fn trace_has_metadata_spans_and_counters() {
        let (obs, sink) = Observer::memory();
        obs.place("intersect", "kernel", 120, || vec![("n", 32u64.into())]);
        obs.on_track(TrackId::Dmac(0))
            .place("load", "dma", 40, Vec::new);
        obs.counter("stall.ecc", 3.0);

        let text = write_chrome_trace(&sink.borrow());
        let n = validate_chrome_trace(&text).unwrap();
        // 2 thread_name + 2 spans + 1 counter.
        assert_eq!(n, 5);
        assert!(text.contains("\"core0\""));
        assert!(text.contains("\"dmac0\""));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ph\":\"C\""));
    }

    #[test]
    fn output_is_deterministic() {
        let build = || {
            let (obs, sink) = Observer::memory();
            obs.place("a", "kernel", 10, Vec::new);
            obs.on_track(TrackId::Host)
                .place("q", "query", 10, Vec::new);
            let text = write_chrome_trace(&sink.borrow());
            text
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": [{\"ph\": \"Z\"}]}").is_err());
        assert!(validate_chrome_trace("{}").is_err());
    }
}
