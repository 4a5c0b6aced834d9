//! Exporters: Chrome `trace_event` JSON for reconstructed spans and
//! Prometheus text exposition for a [`TelemetrySnapshot`].
//!
//! The Chrome trace maps the rig topology onto the trace viewer's model:
//! each telemetry worker (router shard, device, UIF) is a *process*
//! (pid = worker id, named from the registry), and each guest queue
//! (vm, vsq) is a *track* (tid) inside the shard that owned it. Every span
//! becomes one complete ("X") event with per-stage child intervals, and
//! recovery stages (abort/retry/failover) become instant ("i") markers.
//! Load the file in `chrome://tracing` or <https://ui.perfetto.dev>.

use crate::forest::TraceForest;
use crate::span::Span;
use nvmetro_telemetry::{Metric, Percentiles, Route, Segment, Stage, TelemetrySnapshot};
use std::fmt::Write as _;

/// Escapes `s` for embedding in a JSON string literal.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// Renders spans as Chrome `trace_event` JSON (the `{"traceEvents": [...]}`
/// object form). `workers` names the processes (index = worker id, from
/// [`nvmetro_telemetry::Telemetry::worker_names`]); missing names fall
/// back to `shard-N`.
pub fn chrome_trace(spans: &[Span], workers: &[String]) -> String {
    wrap_trace(span_trace_events(spans, workers))
}

/// Renders a [`TraceForest`] as Chrome `trace_event` JSON: the usual span
/// records plus one flow arrow ("s"/"f" event pair sharing an `id`) per
/// resolved causal link, so the viewer draws coalesce fan-out and
/// cross-generation replay as arrows between the related request slices.
pub fn chrome_trace_forest(forest: &TraceForest, workers: &[String]) -> String {
    let mut events = span_trace_events(&forest.spans, workers);
    for (id, link) in forest.links.iter().enumerate() {
        let name = link.kind.name();
        for (ph, span) in [
            ("s", &forest.spans[link.parent]),
            ("f", &forest.spans[link.child]),
        ] {
            // Clamp the instant into the span's own interval so the flow
            // event binds to that track's enclosing slice.
            let ts = link.at.clamp(span.start_ns, span.end_ns.max(span.start_ns));
            let bp = if ph == "f" { ",\"bp\":\"e\"" } else { "" };
            let tid = ((span.vm as u64) << 16) | span.vsq as u64;
            events.push(format!(
                "{{\"name\":\"{name}\",\"cat\":\"link\",\"ph\":\"{ph}\"{bp},\"id\":{id},\
                 \"ts\":{:.3},\"pid\":{},\"tid\":{tid}}}",
                us(ts),
                span.shard,
            ));
        }
    }
    wrap_trace(events)
}

fn wrap_trace(events: Vec<String>) -> String {
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ns\"}}",
        events.join(",")
    )
}

fn span_trace_events(spans: &[Span], workers: &[String]) -> Vec<String> {
    let mut events: Vec<String> = Vec::new();
    let mut seen_pids: Vec<u16> = Vec::new();
    let mut seen_tids: Vec<(u16, u64)> = Vec::new();

    for span in spans {
        let pid = span.shard;
        let tid = ((span.vm as u64) << 16) | span.vsq as u64;
        if !seen_pids.contains(&pid) {
            seen_pids.push(pid);
            let name = workers
                .get(pid as usize)
                .map(|s| esc(s))
                .unwrap_or_else(|| format!("shard-{pid}"));
            events.push(format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"{name}\"}}}}"
            ));
        }
        if !seen_tids.contains(&(pid, tid)) {
            seen_tids.push((pid, tid));
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"vm{} vsq{}\"}}}}",
                span.vm, span.vsq
            ));
        }

        let route = span.route().map(|r| r.name()).unwrap_or("-");
        let dur = us(span.end_ns.saturating_sub(span.start_ns)).max(0.001);
        events.push(format!(
            "{{\"name\":\"tag{} gen{}\",\"cat\":\"request\",\"ph\":\"X\",\
             \"ts\":{:.3},\"dur\":{:.3},\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"route\":\"{route}\",\"attempts\":{},\"complete\":{}}}}}",
            span.tag,
            span.gen,
            us(span.start_ns),
            dur,
            span.attempts(),
            span.complete,
        ));

        // Child intervals: each consecutive event pair becomes a slice
        // named after the earlier stage, so the viewer shows where the
        // request's time went.
        let mut evs: Vec<_> = span.events.iter().collect();
        evs.sort_by_key(|e| e.ts_ns);
        for pair in evs.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if b.ts_ns <= a.ts_ns {
                continue;
            }
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"stage\",\"ph\":\"X\",\
                 \"ts\":{:.3},\"dur\":{:.3},\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"path\":\"{}\"}}}}",
                a.stage.name(),
                us(a.ts_ns),
                us(b.ts_ns - a.ts_ns),
                a.path.name(),
            ));
        }

        for e in &span.events {
            if matches!(e.stage, Stage::Abort | Stage::Retry | Stage::Failover) {
                events.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"recovery\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{:.3},\"pid\":{pid},\"tid\":{tid}}}",
                    e.stage.name(),
                    us(e.ts_ns),
                ));
            }
        }
    }

    events
}

fn prom_hist(out: &mut String, family: &str, label_key: &str, label: &str, p: &Percentiles) {
    for (q, v) in [
        ("0.5", p.p50),
        ("0.9", p.p90),
        ("0.99", p.p99),
        ("0.999", p.p999),
    ] {
        let _ = writeln!(
            out,
            "{family}{{{label_key}=\"{label}\",quantile=\"{q}\"}} {v}"
        );
    }
    let _ = writeln!(out, "{family}_count{{{label_key}=\"{label}\"}} {}", p.count);
    let _ = writeln!(
        out,
        "{family}_mean{{{label_key}=\"{label}\"}} {:.1}",
        p.mean
    );
}

/// One (shard, tenant) fleet-scheduler throttle cell, decoupled from the
/// core engine types so the exporter stays engine-agnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantGauge {
    /// Shard the scheduler slot lives on.
    pub shard: usize,
    /// Tenant (VM) id.
    pub tenant: u32,
    /// Governor throttle scale in permille (1000 = unthrottled).
    pub throttle_permille: u32,
    /// Unspent DRR deficit (requests).
    pub deficit: u64,
    /// Requests admitted on this shard.
    pub admitted: u64,
    /// Token denials on this shard.
    pub throttled: u64,
}

/// One (shard, VM) circuit-breaker cell.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BreakerGauge {
    /// Shard the breaker lives on.
    pub shard: usize,
    /// Owning VM id.
    pub vm: u32,
    /// Whether the breaker is currently open.
    pub open: bool,
    /// Times it has opened so far.
    pub opens: u64,
}

/// Point-in-time engine gauges for the Prometheus exporter — a neutral
/// mirror of the engine's `EngineStats` surface (per-shard poll mode,
/// batch bound, core pin, table occupancy, breaker and tenant-throttle
/// cells), kept here so insight never depends on the core crate. Populate
/// it from an `EngineStats` with `blackbox::engine_gauges`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineGauges {
    /// Each shard's poll-governor mode name ("spin"/"yield"/"parked").
    pub poll_modes: Vec<&'static str>,
    /// Each shard's batch bound currently in force.
    pub batch_sizes: Vec<usize>,
    /// Core each shard is pinned to.
    pub shard_cores: Vec<usize>,
    /// Requests currently occupying routing-table slots across shards.
    pub occupancy: usize,
    /// Highest routing-table occupancy any shard reached.
    pub high_water: usize,
    /// Every (shard, tenant) throttle cell.
    pub tenants: Vec<TenantGauge>,
    /// Every (shard, VM) breaker cell.
    pub breakers: Vec<BreakerGauge>,
}

/// Renders a snapshot as Prometheus text exposition (format 0.0.4):
/// every counter as `nvmetro_<name>_total`, the latency/occupancy
/// distributions as quantile summaries, and per-ring drop counts labelled
/// by worker.
pub fn prometheus_text(snapshot: &TelemetrySnapshot) -> String {
    prometheus_text_with(snapshot, None)
}

/// [`prometheus_text`] plus point-in-time engine gauges: per-shard poll
/// mode / batch bound / core pin, routing-table occupancy, and the
/// per-(shard, tenant) throttle and per-(shard, VM) breaker cells.
pub fn prometheus_text_with(snapshot: &TelemetrySnapshot, gauges: Option<&EngineGauges>) -> String {
    let mut out = String::new();
    for m in Metric::ALL {
        let name = m.name();
        let _ = writeln!(
            out,
            "# HELP nvmetro_{name}_total Monotonic datapath counter \"{name}\"."
        );
        let _ = writeln!(out, "# TYPE nvmetro_{name}_total counter");
        let _ = writeln!(
            out,
            "nvmetro_{name}_total {}",
            snapshot.counters[m as usize]
        );
    }

    let _ = writeln!(
        out,
        "# HELP nvmetro_route_latency_ns Completion latency by dispatch route."
    );
    let _ = writeln!(out, "# TYPE nvmetro_route_latency_ns summary");
    for r in Route::ALL {
        let p = Percentiles::of(&snapshot.route_latency[r as usize]);
        prom_hist(&mut out, "nvmetro_route_latency_ns", "route", r.name(), &p);
    }
    let _ = writeln!(
        out,
        "# HELP nvmetro_segment_ns Time spent per request lifecycle segment."
    );
    let _ = writeln!(out, "# TYPE nvmetro_segment_ns summary");
    for s in Segment::ALL {
        let p = Percentiles::of(&snapshot.segments[s as usize]);
        prom_hist(&mut out, "nvmetro_segment_ns", "segment", s.name(), &p);
    }

    let _ = writeln!(
        out,
        "# HELP nvmetro_trace_ring_dropped_total Trace events lost to ring wrap, per worker."
    );
    let _ = writeln!(out, "# TYPE nvmetro_trace_ring_dropped_total counter");
    for (i, dropped) in snapshot.ring_dropped.iter().enumerate() {
        let worker = snapshot
            .workers
            .get(i)
            .map(|s| esc(s))
            .unwrap_or_else(|| format!("worker-{i}"));
        let _ = writeln!(
            out,
            "nvmetro_trace_ring_dropped_total{{worker=\"{worker}\"}} {dropped}"
        );
    }

    if let Some(g) = gauges {
        let _ = writeln!(
            out,
            "# HELP nvmetro_shard_poll_mode Poll-governor state per shard (1 on the active mode)."
        );
        let _ = writeln!(out, "# TYPE nvmetro_shard_poll_mode gauge");
        for (shard, mode) in g.poll_modes.iter().enumerate() {
            let _ = writeln!(
                out,
                "nvmetro_shard_poll_mode{{shard=\"{shard}\",mode=\"{}\"}} 1",
                esc(mode)
            );
        }
        let _ = writeln!(
            out,
            "# HELP nvmetro_shard_batch_size Batch bound currently in force per shard."
        );
        let _ = writeln!(out, "# TYPE nvmetro_shard_batch_size gauge");
        for (shard, b) in g.batch_sizes.iter().enumerate() {
            let _ = writeln!(out, "nvmetro_shard_batch_size{{shard=\"{shard}\"}} {b}");
        }
        let _ = writeln!(
            out,
            "# HELP nvmetro_shard_core Core each shard is pinned to by placement."
        );
        let _ = writeln!(out, "# TYPE nvmetro_shard_core gauge");
        for (shard, c) in g.shard_cores.iter().enumerate() {
            let _ = writeln!(out, "nvmetro_shard_core{{shard=\"{shard}\"}} {c}");
        }
        let _ = writeln!(
            out,
            "# HELP nvmetro_table_occupancy Requests currently occupying routing-table slots."
        );
        let _ = writeln!(out, "# TYPE nvmetro_table_occupancy gauge");
        let _ = writeln!(out, "nvmetro_table_occupancy {}", g.occupancy);
        let _ = writeln!(
            out,
            "# HELP nvmetro_table_high_water Highest routing-table occupancy any shard reached."
        );
        let _ = writeln!(out, "# TYPE nvmetro_table_high_water gauge");
        let _ = writeln!(out, "nvmetro_table_high_water {}", g.high_water);

        let _ = writeln!(
            out,
            "# HELP nvmetro_tenant_throttle_permille Feedback throttle scale (1000 = unthrottled)."
        );
        let _ = writeln!(out, "# TYPE nvmetro_tenant_throttle_permille gauge");
        for t in &g.tenants {
            let _ = writeln!(
                out,
                "nvmetro_tenant_throttle_permille{{shard=\"{}\",tenant=\"{}\"}} {}",
                t.shard, t.tenant, t.throttle_permille
            );
        }
        let _ = writeln!(
            out,
            "# HELP nvmetro_tenant_deficit Unspent DRR deficit per scheduler cell."
        );
        let _ = writeln!(out, "# TYPE nvmetro_tenant_deficit gauge");
        for t in &g.tenants {
            let _ = writeln!(
                out,
                "nvmetro_tenant_deficit{{shard=\"{}\",tenant=\"{}\"}} {}",
                t.shard, t.tenant, t.deficit
            );
        }
        let _ = writeln!(
            out,
            "# HELP nvmetro_tenant_admitted_total Requests admitted per scheduler cell."
        );
        let _ = writeln!(out, "# TYPE nvmetro_tenant_admitted_total counter");
        for t in &g.tenants {
            let _ = writeln!(
                out,
                "nvmetro_tenant_admitted_total{{shard=\"{}\",tenant=\"{}\"}} {}",
                t.shard, t.tenant, t.admitted
            );
        }
        let _ = writeln!(
            out,
            "# HELP nvmetro_tenant_throttled_total Token denials per scheduler cell."
        );
        let _ = writeln!(out, "# TYPE nvmetro_tenant_throttled_total counter");
        for t in &g.tenants {
            let _ = writeln!(
                out,
                "nvmetro_tenant_throttled_total{{shard=\"{}\",tenant=\"{}\"}} {}",
                t.shard, t.tenant, t.throttled
            );
        }

        let _ = writeln!(
            out,
            "# HELP nvmetro_breaker_open Whether the (shard, VM) circuit breaker is open."
        );
        let _ = writeln!(out, "# TYPE nvmetro_breaker_open gauge");
        for b in &g.breakers {
            let _ = writeln!(
                out,
                "nvmetro_breaker_open{{shard=\"{}\",vm=\"{}\"}} {}",
                b.shard, b.vm, b.open as u32
            );
        }
        // Named apart from the global `nvmetro_breaker_opens_total`
        // counter family the Metric loop already emits.
        let _ = writeln!(
            out,
            "# HELP nvmetro_breaker_cell_opens_total Times the (shard, VM) breaker has opened."
        );
        let _ = writeln!(out, "# TYPE nvmetro_breaker_cell_opens_total counter");
        for b in &g.breakers {
            let _ = writeln!(
                out,
                "nvmetro_breaker_cell_opens_total{{shard=\"{}\",vm=\"{}\"}} {}",
                b.shard, b.vm, b.opens
            );
        }
    }
    out
}

/// Validates that `input` is one well-formed JSON value (the whole string,
/// modulo surrounding whitespace). Dependency-free recursive descent;
/// returns the byte offset and reason on failure. Used by `ci.sh` to gate
/// the exported Chrome trace.
pub fn validate_json(input: &str) -> Result<(), String> {
    let b = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(b, &mut pos);
    value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    match b.get(*pos) {
        None => Err(format!("unexpected end of input at byte {pos}")),
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => string(b, pos),
        Some(b't') => literal(b, pos, "true"),
        Some(b'f') => literal(b, pos, "false"),
        Some(b'n') => literal(b, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        Some(c) => Err(format!("unexpected byte {c:?} at {pos}")),
    }
}

fn literal(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos} (expected {lit})"))
    }
}

fn number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    while b.get(*pos).is_some_and(|c| c.is_ascii_digit()) {
        *pos += 1;
    }
    if *pos == int_start {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let frac = *pos;
        while b.get(*pos).is_some_and(|c| c.is_ascii_digit()) {
            *pos += 1;
        }
        if *pos == frac {
            return Err(format!("bad number fraction at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e') | Some(b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+') | Some(b'-')) {
            *pos += 1;
        }
        let exp = *pos;
        while b.get(*pos).is_some_and(|c| c.is_ascii_digit()) {
            *pos += 1;
        }
        if *pos == exp {
            return Err(format!("bad number exponent at byte {start}"));
        }
    }
    Ok(())
}

fn string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    *pos += 1; // opening quote
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        for i in 1..=4 {
                            if !b.get(*pos + i).is_some_and(|c| c.is_ascii_hexdigit()) {
                                return Err(format!("bad \\u escape at byte {pos}"));
                            }
                        }
                        *pos += 5;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
            }
            0x00..=0x1f => return Err(format!("raw control byte in string at {pos}")),
            _ => *pos += 1,
        }
    }
    Err(format!("unterminated string starting at byte {start}"))
}

fn object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '{'
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        skip_ws(b, pos);
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    *pos += 1; // '['
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanAssembler;
    use nvmetro_telemetry::{PathKind, Telemetry, TraceEvent, VM_ANY};

    fn sample_spans() -> Vec<Span> {
        let mk = |ts, vm, vsq, tag, gen, stage, path, worker| TraceEvent {
            ts_ns: ts,
            vm,
            vsq,
            tag,
            gen,
            stage,
            path,
            worker,
            ..TraceEvent::default()
        };
        let mut a = SpanAssembler::new();
        a.push(&mk(1000, 0, 0, 5, 1, Stage::VsqFetch, PathKind::None, 0));
        a.push(&mk(1010, 0, 0, 5, 1, Stage::Dispatched, PathKind::Fast, 0));
        a.push(&mk(
            1500,
            VM_ANY,
            0,
            5,
            0,
            Stage::DeviceService,
            PathKind::Fast,
            2,
        ));
        a.push(&mk(1600, 0, 0, 5, 1, Stage::Retry, PathKind::None, 0));
        a.push(&mk(2000, 0, 0, 5, 1, Stage::VcqComplete, PathKind::None, 0));
        a.finish().spans
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_records() {
        let spans = sample_spans();
        let workers = vec!["router".to_string(), "uif".to_string(), "ssd".to_string()];
        let trace = chrome_trace(&spans, &workers);
        validate_json(&trace).expect("valid JSON");
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"process_name\""));
        assert!(trace.contains("\"router\""));
        assert!(trace.contains("\"thread_name\""));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"ph\":\"i\"")); // the retry marker
        assert!(trace.contains("\"retry\""));
    }

    #[test]
    fn chrome_trace_of_nothing_is_still_valid() {
        let trace = chrome_trace(&[], &[]);
        validate_json(&trace).expect("valid JSON");
        assert!(trace.contains("\"traceEvents\":[]"));
    }

    #[test]
    fn prometheus_text_lists_counters_and_quantiles() {
        let telemetry = Telemetry::enabled();
        let h = telemetry.register_worker_named("router.0");
        h.count(Metric::Accepted);
        h.count(Metric::Accepted);
        h.route_latency(nvmetro_telemetry::Route::Fast, 1234);
        let text = prometheus_text(&telemetry.snapshot());
        assert!(text.contains("# TYPE nvmetro_accepted_total counter"));
        assert!(text.contains("nvmetro_accepted_total 2"));
        assert!(text.contains("nvmetro_route_latency_ns{route=\"fast\",quantile=\"0.5\"} 1234"));
        assert!(text.contains("nvmetro_route_latency_ns_count{route=\"fast\"} 1"));
        assert!(text.contains("nvmetro_trace_ring_dropped_total{worker=\"router.0\"} 0"));
    }

    #[test]
    fn chrome_trace_forest_emits_flow_event_pairs() {
        use crate::forest::TraceForest;
        let mk = |ts, vm, tag, stage, link_tag, link_gen| TraceEvent {
            ts_ns: ts,
            vm,
            tag,
            gen: 1,
            stage,
            link_tag,
            link_gen,
            ..TraceEvent::default()
        };
        let mut a = SpanAssembler::new();
        a.extend(&[
            mk(100, 0, 1, Stage::VsqFetch, 0, 0),
            mk(110, 1, 2, Stage::VsqFetch, 0, 0),
            mk(500, 1, 2, Stage::LinkFanout, 1, 1),
            mk(500, 1, 2, Stage::VcqComplete, 0, 0),
            mk(501, 0, 1, Stage::VcqComplete, 0, 0),
        ]);
        let forest = TraceForest::build(a.finish().spans);
        assert_eq!(forest.stats.links_resolved, 1);
        let trace = chrome_trace_forest(&forest, &["router".to_string()]);
        validate_json(&trace).expect("valid JSON");
        assert!(trace.contains("\"ph\":\"s\""));
        assert!(trace.contains("\"ph\":\"f\",\"bp\":\"e\""));
        assert!(trace.contains("\"coalesce_fanout\""));
        // The pair shares an id.
        assert_eq!(trace.matches("\"id\":0").count(), 2);
    }

    #[test]
    fn prometheus_text_with_gauges_lists_engine_state() {
        use super::{BreakerGauge, EngineGauges, TenantGauge};
        let telemetry = Telemetry::enabled();
        telemetry.register_worker_named("router.0");
        let gauges = EngineGauges {
            poll_modes: vec!["spin", "parked"],
            batch_sizes: vec![8, 16],
            shard_cores: vec![2, 3],
            occupancy: 5,
            high_water: 40,
            tenants: vec![TenantGauge {
                shard: 1,
                tenant: 7,
                throttle_permille: 500,
                deficit: 3,
                admitted: 100,
                throttled: 9,
            }],
            breakers: vec![BreakerGauge {
                shard: 0,
                vm: 7,
                open: true,
                opens: 2,
            }],
        };
        let text = prometheus_text_with(&telemetry.snapshot(), Some(&gauges));
        assert!(text.contains("nvmetro_shard_poll_mode{shard=\"1\",mode=\"parked\"} 1"));
        assert!(text.contains("nvmetro_shard_batch_size{shard=\"1\"} 16"));
        assert!(text.contains("nvmetro_shard_core{shard=\"0\"} 2"));
        assert!(text.contains("nvmetro_table_occupancy 5"));
        assert!(text.contains("nvmetro_table_high_water 40"));
        assert!(text.contains("nvmetro_tenant_throttle_permille{shard=\"1\",tenant=\"7\"} 500"));
        assert!(text.contains("nvmetro_tenant_admitted_total{shard=\"1\",tenant=\"7\"} 100"));
        assert!(text.contains("nvmetro_tenant_throttled_total{shard=\"1\",tenant=\"7\"} 9"));
        assert!(text.contains("nvmetro_breaker_open{shard=\"0\",vm=\"7\"} 1"));
        assert!(text.contains("nvmetro_breaker_cell_opens_total{shard=\"0\",vm=\"7\"} 2"));
    }

    #[test]
    fn prometheus_exposition_format_conformance() {
        let telemetry = Telemetry::enabled();
        // A hostile worker name must be escaped in the label value.
        telemetry.register_worker_named("router\"0\\x\n");
        let text = prometheus_text_with(&telemetry.snapshot(), Some(&EngineGauges::default()));
        for line in text.lines() {
            assert!(!line.is_empty(), "no blank lines in exposition output");
        }
        // Every sample's family has both HELP and TYPE comments, with
        // HELP immediately before TYPE.
        let lines: Vec<&str> = text.lines().collect();
        for w in lines.windows(2) {
            if let Some(rest) = w[0].strip_prefix("# HELP ") {
                let family = rest.split_whitespace().next().unwrap();
                assert!(
                    w[1].starts_with(&format!("# TYPE {family} ")),
                    "HELP for {family} not followed by its TYPE line"
                );
            }
        }
        assert!(text.contains("# HELP nvmetro_accepted_total"));
        assert!(text.contains("# TYPE nvmetro_accepted_total counter"));
        assert!(text.contains("# TYPE nvmetro_route_latency_ns summary"));
        assert!(text.contains("# TYPE nvmetro_shard_poll_mode gauge"));
        // The escaped worker label: quote, backslash and newline encoded.
        assert!(text.contains("worker=\"router\\\"0\\\\x\\n\""));
        // Exactly one TYPE line per family.
        let mut families: Vec<&str> = lines
            .iter()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        let total = families.len();
        families.sort_unstable();
        families.dedup();
        assert_eq!(total, families.len(), "duplicate # TYPE family");
    }

    #[test]
    fn validator_accepts_and_rejects() {
        assert!(validate_json("{\"a\": [1, 2.5, -3e4, true, null, \"x\\n\"]}").is_ok());
        assert!(validate_json("  [ ]  ").is_ok());
        assert!(validate_json("").is_err());
        assert!(validate_json("{").is_err());
        assert!(validate_json("[1,]").is_err());
        assert!(validate_json("{\"a\":1} extra").is_err());
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_json("{'a':1}").is_err());
    }
}
