//! Point-in-time telemetry snapshot: aggregated counters, merged latency
//! histograms, the trace-ring contents, and lifecycle reassembly.

use crate::event::{Depth, Route, Segment, Stage, TraceEvent, VM_ANY};
use crate::metrics::Metric;
use crate::percentile::Percentiles;
use nvmetro_stats::{Histogram, Table};
use std::fmt::Write as _;

/// Identity of one traced request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RequestKey {
    /// Owning VM id.
    pub vm: u32,
    /// Virtual submission queue index.
    pub vsq: u16,
    /// Router routing-table tag.
    pub tag: u16,
}

/// Everything the telemetry subsystem knows at one instant. Cheap to hold;
/// detached from the live registry.
pub struct TelemetrySnapshot {
    /// Counter totals, summed across worker shards, indexed by [`Metric`].
    pub counters: [u64; Metric::COUNT],
    /// VSQ→VCQ latency split by route.
    pub route_latency: [Histogram; Route::COUNT],
    /// Stage-segment durations.
    pub segments: [Histogram; Segment::COUNT],
    /// Occupancy/batch-size distributions (queue depth, CQEs per flush).
    pub depths: [Histogram; Depth::COUNT],
    /// All workers' trace-ring contents, merged, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring wrap-around, summed over all rings.
    pub dropped_events: u64,
    /// Registered worker names, indexed by `TraceEvent::worker`.
    pub workers: Vec<String>,
    /// Events lost to wrap-around per worker ring (same indexing as
    /// `workers`) — lets span assembly report coverage per shard.
    pub ring_dropped: Vec<u64>,
}

impl TelemetrySnapshot {
    /// An all-empty snapshot (what a disabled registry returns).
    pub fn empty() -> Self {
        TelemetrySnapshot {
            counters: [0; Metric::COUNT],
            route_latency: std::array::from_fn(|_| Histogram::new()),
            segments: std::array::from_fn(|_| Histogram::new()),
            depths: std::array::from_fn(|_| Histogram::new()),
            events: Vec::new(),
            dropped_events: 0,
            workers: Vec::new(),
            ring_dropped: Vec::new(),
        }
    }

    /// Counter total for one metric.
    pub fn get(&self, m: Metric) -> u64 {
        self.counters[m as usize]
    }

    /// Latency histogram for one route.
    pub fn route_hist(&self, r: Route) -> &Histogram {
        &self.route_latency[r as usize]
    }

    /// Duration histogram for one stage segment.
    pub fn segment_hist(&self, s: Segment) -> &Histogram {
        &self.segments[s as usize]
    }

    /// Occupancy/batch-size histogram for one depth series.
    pub fn depth_hist(&self, d: Depth) -> &Histogram {
        &self.depths[d as usize]
    }

    /// Identities of all requests whose `VsqFetch` event is still in the
    /// ring, in arrival order.
    pub fn requests(&self) -> Vec<RequestKey> {
        self.events
            .iter()
            .filter(|e| e.stage == Stage::VsqFetch)
            .map(|e| RequestKey {
                vm: e.vm,
                vsq: e.vsq,
                tag: e.tag,
            })
            .collect()
    }

    /// Reassembles one request's journey: all router-side events matching
    /// `(vm, vsq, tag)` exactly, plus below-router events (`vm == VM_ANY`)
    /// with the same tag that fall inside the request's accept..complete
    /// window. Returned in chronological order.
    pub fn lifecycle(&self, vm: u32, vsq: u16, tag: u16) -> Vec<TraceEvent> {
        let exact: Vec<&TraceEvent> = self
            .events
            .iter()
            .filter(|e| e.vm == vm && e.vsq == vsq && e.tag == tag)
            .collect();
        if exact.is_empty() {
            return Vec::new();
        }
        let start = exact.iter().map(|e| e.ts_ns).min().unwrap();
        let end = exact.iter().map(|e| e.ts_ns).max().unwrap();
        let mut out: Vec<TraceEvent> = self
            .events
            .iter()
            .filter(|e| {
                (e.vm == vm && e.vsq == vsq && e.tag == tag)
                    || (e.vm == VM_ANY && e.tag == tag && e.ts_ns >= start && e.ts_ns <= end)
            })
            .copied()
            .collect();
        out.sort_by_key(|e| (e.ts_ns, e.stage));
        out
    }

    /// The set of stages present in one request's lifecycle.
    pub fn lifecycle_stages(&self, vm: u32, vsq: u16, tag: u16) -> Vec<Stage> {
        let mut stages: Vec<Stage> = self
            .lifecycle(vm, vsq, tag)
            .iter()
            .map(|e| e.stage)
            .collect();
        stages.sort_unstable();
        stages.dedup();
        stages
    }

    /// Counter totals as a two-column table.
    pub fn counters_table(&self) -> Table {
        let mut t = Table::new("telemetry counters", &["metric", "count"]);
        for m in Metric::ALL {
            t.row(&[m.name().to_string(), self.get(m).to_string()]);
        }
        t
    }

    /// Per-route latency and per-segment duration percentiles as a table.
    pub fn latency_table(&self) -> Table {
        let mut t = Table::new(
            "latency (ns)",
            &["series", "count", "mean", "p50", "p99", "p999", "max"],
        );
        let mut push = |name: &str, h: &Histogram| {
            let p = Percentiles::of(h);
            t.row(&[
                name.to_string(),
                p.count.to_string(),
                format!("{:.0}", p.mean),
                p.p50.to_string(),
                p.p99.to_string(),
                p.p999.to_string(),
                p.max.to_string(),
            ]);
        };
        for r in Route::ALL {
            push(&format!("route/{}", r.name()), self.route_hist(r));
        }
        for s in Segment::ALL {
            push(&format!("segment/{}", s.name()), self.segment_hist(s));
        }
        for d in Depth::ALL {
            push(&format!("depth/{}", d.name()), self.depth_hist(d));
        }
        t
    }

    /// Human-readable rendering: counters table, latency table, and a
    /// one-line trace summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.counters_table().render());
        out.push('\n');
        out.push_str(&self.latency_table().render());
        let _ = writeln!(
            out,
            "\ntrace: {} events buffered, {} dropped across {} worker rings",
            self.events.len(),
            self.dropped_events,
            self.ring_dropped.len().max(1)
        );
        out
    }

    /// Counters and latency series as CSV (`kind,name,field,value` rows).
    pub fn to_csv(&self) -> String {
        let mut t = Table::new("", &["kind", "name", "field", "value"]);
        for m in Metric::ALL {
            t.row(&[
                "counter".into(),
                m.name().into(),
                "count".into(),
                self.get(m).to_string(),
            ]);
        }
        let series = |kind: &str, name: &str, h: &Histogram, t: &mut Table| {
            let p = Percentiles::of(h);
            for (field, v) in [
                ("count", p.count),
                ("p50", p.p50),
                ("p99", p.p99),
                ("p999", p.p999),
                ("max", p.max),
            ] {
                t.row(&[kind.into(), name.into(), field.into(), v.to_string()]);
            }
        };
        for r in Route::ALL {
            series("route", r.name(), self.route_hist(r), &mut t);
        }
        for s in Segment::ALL {
            series("segment", s.name(), self.segment_hist(s), &mut t);
        }
        for d in Depth::ALL {
            series("depth", d.name(), self.depth_hist(d), &mut t);
        }
        t.to_csv()
    }

    /// Full snapshot as JSON (hand-rolled; all fields are numbers/strings
    /// so no escaping is ever needed).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, m) in Metric::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", m.name(), self.get(*m));
        }
        out.push_str("},\"routes\":{");
        let hist_json = |h: &Histogram| Percentiles::of(h).to_json();
        for (i, r) in Route::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", r.name(), hist_json(self.route_hist(*r)));
        }
        out.push_str("},\"segments\":{");
        for (i, s) in Segment::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", s.name(), hist_json(self.segment_hist(*s)));
        }
        out.push_str("},\"depths\":{");
        for (i, d) in Depth::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", d.name(), hist_json(self.depth_hist(*d)));
        }
        let _ = write!(
            out,
            "}},\"dropped_events\":{},\"ring_dropped\":[",
            self.dropped_events
        );
        for (i, d) in self.ring_dropped.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{d}");
        }
        out.push_str("],\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let vm = if e.vm == VM_ANY {
                "null".to_string()
            } else {
                e.vm.to_string()
            };
            let _ = write!(
                out,
                "{{\"ts_ns\":{},\"vm\":{},\"vsq\":{},\"tag\":{},\"gen\":{},\"worker\":{},\"stage\":\"{}\",\"path\":\"{}\"",
                e.ts_ns,
                vm,
                e.vsq,
                e.tag,
                e.gen,
                e.worker,
                e.stage.name(),
                e.path.name()
            );
            if e.link_gen != 0 {
                let _ = write!(
                    out,
                    ",\"link_tag\":{},\"link_gen\":{}",
                    e.link_tag, e.link_gen
                );
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Renders one reassembled lifecycle as an aligned table (stage, path,
/// timestamp, delta from the previous stage).
pub fn lifecycle_table(events: &[TraceEvent]) -> Table {
    let mut t = Table::new(
        "request lifecycle",
        &["ts_ns", "+delta", "stage", "path", "vm"],
    );
    let mut prev: Option<u64> = None;
    for e in events {
        let delta = prev.map_or_else(String::new, |p| format!("+{}", e.ts_ns - p));
        let vm = if e.vm == VM_ANY {
            "-".to_string()
        } else {
            e.vm.to_string()
        };
        t.row(&[
            e.ts_ns.to_string(),
            delta,
            e.stage.name().to_string(),
            e.path.name().to_string(),
            vm,
        ]);
        prev = Some(e.ts_ns);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PathKind;

    fn ev(ts: u64, vm: u32, tag: u16, stage: Stage, path: PathKind) -> TraceEvent {
        TraceEvent {
            ts_ns: ts,
            vm,
            tag,
            stage,
            path,
            ..TraceEvent::default()
        }
    }

    fn sample() -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot::empty();
        s.counters[Metric::Accepted as usize] = 2;
        s.counters[Metric::Completed as usize] = 2;
        s.route_latency[Route::Fast as usize].record(1_000);
        s.events = vec![
            ev(10, 0, 7, Stage::VsqFetch, PathKind::None),
            ev(11, 0, 7, Stage::Classified, PathKind::None),
            ev(12, 0, 7, Stage::Dispatched, PathKind::Fast),
            ev(40, VM_ANY, 7, Stage::DeviceService, PathKind::Fast),
            ev(50, 0, 7, Stage::VcqComplete, PathKind::None),
            // A different request reusing the tag later.
            ev(90, 1, 7, Stage::VsqFetch, PathKind::None),
            ev(95, 1, 7, Stage::VcqComplete, PathKind::None),
        ];
        s
    }

    #[test]
    fn lifecycle_matches_window_and_tag() {
        let s = sample();
        let life = s.lifecycle(0, 0, 7);
        let stages: Vec<Stage> = life.iter().map(|e| e.stage).collect();
        assert_eq!(
            stages,
            vec![
                Stage::VsqFetch,
                Stage::Classified,
                Stage::Dispatched,
                Stage::DeviceService,
                Stage::VcqComplete
            ]
        );
        // The second request's events are excluded by the exact-vm filter
        // and the time window.
        let life2 = s.lifecycle(1, 0, 7);
        assert_eq!(life2.len(), 2);
    }

    #[test]
    fn lifecycle_of_unknown_request_is_empty() {
        let s = sample();
        assert!(s.lifecycle(9, 9, 9).is_empty());
    }

    #[test]
    fn requests_lists_fetched_commands() {
        let s = sample();
        let reqs = s.requests();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].vm, 0);
        assert_eq!(reqs[1].vm, 1);
    }

    #[test]
    fn tables_and_exports_contain_counters() {
        let s = sample();
        let txt = s.render();
        assert!(txt.contains("accepted"));
        assert!(txt.contains("route/fast"));
        let csv = s.to_csv();
        assert!(csv.contains("counter,accepted,count,2"));
        let json = s.to_json();
        assert!(json.contains("\"accepted\":2"));
        assert!(json.contains("\"stage\":\"vsq_fetch\""));
        assert!(json.contains("\"vm\":null"));
    }

    #[test]
    fn lifecycle_table_shows_deltas() {
        let s = sample();
        let t = lifecycle_table(&s.lifecycle(0, 0, 7));
        let txt = t.render();
        assert!(
            txt.contains("+28"),
            "expected dispatch→service delta:\n{txt}"
        );
        assert!(txt.contains("device_service"));
    }
}
