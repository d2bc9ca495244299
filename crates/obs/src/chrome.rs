//! Chrome `trace_event` export.
//!
//! Converts a recorded event stream into the JSON object format consumed by
//! Perfetto (<https://ui.perfetto.dev>) and `chrome://tracing`. Request
//! lifecycles become async spans (`ph: "b"` at issue, `ph: "e"` at response,
//! keyed by request id) so one request draws as one bar; everything else is
//! an instant event. Cores/domains map to threads of a "requests" process
//! and DRAM banks to threads of a "dram" process.
//!
//! Timestamps are in microseconds by the spec; we write one CPU cycle as one
//! microsecond, so "1 µs" in the viewer reads as "1 cycle".
//!
//! Request causality across layers is drawn with flow events: a flow starts
//! (`ph: "s"`) at core-side issue, steps (`ph: "t"`) through the
//! transaction-queue entry on the DRAM process, and finishes (`ph: "f"`) at
//! the response — all keyed by the request id, so the viewer draws arrows
//! from issue to completion.

use crate::event::{Event, EventKind};
use serde::Value;

/// Process id used for per-domain request timelines.
const PID_REQUESTS: u64 = 1;
/// Process id used for per-bank DRAM command timelines.
const PID_DRAM: u64 = 2;

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn event_entry(e: &Event) -> Value {
    let (ph, pid, tid): (&str, u64, u64) = match e.kind {
        EventKind::Issue { domain, .. } => ("b", PID_REQUESTS, u64::from(domain.0)),
        EventKind::Response { domain, .. } => ("e", PID_REQUESTS, u64::from(domain.0)),
        EventKind::BankCommand { bank, .. } => ("i", PID_DRAM, u64::from(bank)),
        // Counter tracks: one per shaper queue (on the owning domain's
        // thread) and one for controller in-flight occupancy.
        EventKind::ShaperQueueDepth { domain, .. } => ("C", PID_REQUESTS, u64::from(domain.0)),
        EventKind::TxqOccupancy { .. } => ("C", PID_DRAM, 0),
        kind => (
            "i",
            PID_REQUESTS,
            u64::from(kind.domain().map(|d| d.0).unwrap_or(0)),
        ),
    };
    let mut fields = vec![
        ("name", Value::Str(e.kind.name().to_string())),
        ("cat", Value::Str("mem".to_string())),
        ("ph", Value::Str(ph.to_string())),
        ("ts", Value::UInt(e.cycle)),
        ("pid", Value::UInt(pid)),
        ("tid", Value::UInt(tid)),
    ];
    if let Some(id) = e.kind.req_id() {
        fields.push(("id", Value::Str(format!("{:#x}", id.0))));
    }
    if ph == "i" {
        // Instant scope: thread-local.
        fields.push(("s", Value::Str("t".to_string())));
    }
    fields.push(("args", args_for(&e.kind)));
    obj(fields)
}

/// Flow event (`s`/`t`/`f`) tying a request's entries together across the
/// requests and dram processes.
fn flow_entry(ph: &str, cycle: u64, id: u64, pid: u64, tid: u64) -> Value {
    let mut fields = vec![
        ("name", Value::Str("req_flow".to_string())),
        ("cat", Value::Str("flow".to_string())),
        ("ph", Value::Str(ph.to_string())),
        ("ts", Value::UInt(cycle)),
        ("pid", Value::UInt(pid)),
        ("tid", Value::UInt(tid)),
        ("id", Value::Str(format!("{id:#x}"))),
    ];
    if ph == "f" {
        // Bind the finish to the enclosing slice's end.
        fields.push(("bp", Value::Str("e".to_string())));
    }
    obj(fields)
}

/// Emits the entry for `e` plus any flow event linking it into its
/// request's issue → DRAM → completion chain.
fn event_entries(e: &Event, entries: &mut Vec<Value>) {
    entries.push(event_entry(e));
    match e.kind {
        EventKind::Issue { id, domain, .. } => {
            entries.push(flow_entry(
                "s",
                e.cycle,
                id.0,
                PID_REQUESTS,
                u64::from(domain.0),
            ));
        }
        EventKind::TxqEnqueue { id, bank, .. } => {
            entries.push(flow_entry("t", e.cycle, id.0, PID_DRAM, u64::from(bank)));
        }
        EventKind::Response { id, domain, .. } => {
            entries.push(flow_entry(
                "f",
                e.cycle,
                id.0,
                PID_REQUESTS,
                u64::from(domain.0),
            ));
        }
        _ => {}
    }
}

fn args_for(kind: &EventKind) -> Value {
    match *kind {
        EventKind::Issue { addr, is_write, .. } => obj(vec![
            ("addr", Value::Str(format!("{addr:#x}"))),
            ("is_write", Value::Bool(is_write)),
        ]),
        EventKind::LlcMiss { addr, .. } => obj(vec![("addr", Value::Str(format!("{addr:#x}")))]),
        EventKind::ShaperEmitReal { bank, .. } | EventKind::ShaperEmitFake { bank, .. } => {
            obj(vec![("bank", Value::UInt(u64::from(bank)))])
        }
        EventKind::TxqEnqueue { bank, .. } => obj(vec![("bank", Value::UInt(u64::from(bank)))]),
        EventKind::BankCommand { bank, .. } => obj(vec![("bank", Value::UInt(u64::from(bank)))]),
        EventKind::Response { latency, fake, .. } => obj(vec![
            ("latency", Value::UInt(latency)),
            ("fake", Value::Bool(fake)),
        ]),
        EventKind::ShaperQueueDepth { depth, .. } => {
            obj(vec![("depth", Value::UInt(u64::from(depth)))])
        }
        EventKind::TxqOccupancy { count } => obj(vec![("count", Value::UInt(u64::from(count)))]),
        EventKind::ShaperAccept { .. } | EventKind::ShaperReject { .. } => obj(vec![]),
    }
}

/// Metadata entry naming a process in the trace viewer.
fn process_name(pid: u64, name: &str) -> Value {
    obj(vec![
        ("name", Value::Str("process_name".to_string())),
        ("ph", Value::Str("M".to_string())),
        ("pid", Value::UInt(pid)),
        ("args", obj(vec![("name", Value::Str(name.to_string()))])),
    ])
}

/// Builds the full Chrome trace object (`{"traceEvents": [...]}`).
///
/// The output is deterministic: entries appear in recording order, and the
/// vendored JSON writer preserves key insertion order.
pub fn chrome_trace(events: &[Event]) -> Value {
    let mut entries = vec![
        process_name(PID_REQUESTS, "requests"),
        process_name(PID_DRAM, "dram"),
    ];
    for e in events {
        event_entries(e, &mut entries);
    }
    obj(vec![
        ("traceEvents", Value::Seq(entries)),
        ("displayTimeUnit", Value::Str("ms".to_string())),
    ])
}

/// Serializes the Chrome trace object to a JSON string.
pub fn chrome_trace_json(events: &[Event]) -> String {
    serde_json::to_string(&chrome_trace(events)).expect("value serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_sim::types::{DomainId, ReqId};

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                cycle: 10,
                kind: EventKind::Issue {
                    id: ReqId::compose(DomainId(1), 7),
                    domain: DomainId(1),
                    addr: 0x1000,
                    is_write: false,
                },
            },
            Event {
                cycle: 12,
                kind: EventKind::BankCommand {
                    cmd: crate::event::BankCmd::Act,
                    bank: 3,
                },
            },
            Event {
                cycle: 40,
                kind: EventKind::Response {
                    id: ReqId::compose(DomainId(1), 7),
                    domain: DomainId(1),
                    latency: 30,
                    fake: false,
                },
            },
        ]
    }

    #[test]
    fn trace_shape_has_trace_events_array() {
        let v = chrome_trace(&sample_events());
        let map = v.as_map().expect("top level is an object");
        let (_, tev) = map
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .expect("traceEvents key present");
        // 2 metadata entries + 3 events + flow start/finish for the
        // issue/response pair.
        assert_eq!(tev.as_seq().expect("array").len(), 7);
    }

    #[test]
    fn issue_response_form_async_pair() {
        let v = chrome_trace(&sample_events());
        let tev = v.get("traceEvents").and_then(Value::as_seq).unwrap();
        let phases: Vec<&str> = tev
            .iter()
            .filter_map(|e| e.get("ph").and_then(Value::as_str))
            .collect();
        assert_eq!(phases, vec!["M", "M", "b", "s", "i", "e", "f"]);
        // The async begin/end and both flow endpoints share an id.
        let ids: Vec<&str> = tev
            .iter()
            .filter_map(|e| e.get("id").and_then(Value::as_str))
            .collect();
        assert_eq!(ids.len(), 4);
        assert!(ids.iter().all(|&i| i == ids[0]));
    }

    #[test]
    fn flow_links_issue_through_dram_to_response() {
        let mut events = sample_events();
        events.insert(
            1,
            Event {
                cycle: 11,
                kind: EventKind::TxqEnqueue {
                    id: ReqId::compose(DomainId(1), 7),
                    domain: DomainId(1),
                    bank: 3,
                },
            },
        );
        let v = chrome_trace(&events);
        let tev = v.get("traceEvents").and_then(Value::as_seq).unwrap();
        let flows: Vec<&Value> = tev
            .iter()
            .filter(|e| e.get("cat").and_then(Value::as_str) == Some("flow"))
            .collect();
        let phases: Vec<&str> = flows
            .iter()
            .filter_map(|e| e.get("ph").and_then(Value::as_str))
            .collect();
        assert_eq!(phases, vec!["s", "t", "f"]);
        // The step rides on the DRAM process (bank thread), drawing the
        // cross-process arrow; the finish binds to the enclosing slice.
        assert_eq!(flows[1].get("pid").and_then(Value::as_u64), Some(PID_DRAM));
        assert_eq!(flows[1].get("tid").and_then(Value::as_u64), Some(3));
        assert_eq!(flows[2].get("bp").and_then(Value::as_str), Some("e"));
        // All flow entries share the request id.
        let ids: Vec<&str> = flows
            .iter()
            .filter_map(|e| e.get("id").and_then(Value::as_str))
            .collect();
        assert!(ids.iter().all(|&i| i == ids[0]));
    }

    #[test]
    fn bank_command_goes_to_dram_process() {
        let v = chrome_trace(&sample_events());
        let tev = v.get("traceEvents").and_then(Value::as_seq).unwrap();
        let act = tev
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("ACT"))
            .expect("ACT entry");
        assert_eq!(act.get("pid").and_then(Value::as_u64), Some(PID_DRAM));
        assert_eq!(act.get("tid").and_then(Value::as_u64), Some(3));
        assert_eq!(act.get("ts").and_then(Value::as_u64), Some(12));
    }

    #[test]
    fn counter_events_export_as_counter_phase() {
        let events = vec![
            Event {
                cycle: 5,
                kind: EventKind::ShaperQueueDepth {
                    domain: DomainId(2),
                    depth: 4,
                },
            },
            Event {
                cycle: 6,
                kind: EventKind::TxqOccupancy { count: 9 },
            },
        ];
        let v = chrome_trace(&events);
        let tev = v.get("traceEvents").and_then(Value::as_seq).unwrap();
        // 2 metadata entries + 2 counters, no flow events.
        assert_eq!(tev.len(), 4);
        let depth = tev
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("shaper_queue_depth"))
            .expect("shaper_queue_depth entry");
        assert_eq!(depth.get("ph").and_then(Value::as_str), Some("C"));
        assert_eq!(depth.get("pid").and_then(Value::as_u64), Some(PID_REQUESTS));
        assert_eq!(depth.get("tid").and_then(Value::as_u64), Some(2));
        // Counters carry their value in args and are not instants, so no
        // scope field and no request id.
        assert!(depth.get("s").is_none());
        assert!(depth.get("id").is_none());
        let args = depth.get("args").expect("args");
        assert_eq!(args.get("depth").and_then(Value::as_u64), Some(4));
        let occ = tev
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("txq_occupancy"))
            .expect("txq_occupancy entry");
        assert_eq!(occ.get("ph").and_then(Value::as_str), Some("C"));
        assert_eq!(occ.get("pid").and_then(Value::as_u64), Some(PID_DRAM));
        let args = occ.get("args").expect("args");
        assert_eq!(args.get("count").and_then(Value::as_u64), Some(9));
    }

    #[test]
    fn json_round_trips_through_parser() {
        let s = chrome_trace_json(&sample_events());
        let parsed: Value = serde_json::from_str(&s).expect("valid JSON");
        assert!(parsed.get("traceEvents").is_some());
    }

    #[test]
    fn export_is_deterministic() {
        let a = chrome_trace_json(&sample_events());
        let b = chrome_trace_json(&sample_events());
        assert_eq!(a, b);
    }
}
