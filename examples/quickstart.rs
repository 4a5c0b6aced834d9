//! Quickstart: a VM, an NVMetro router with a verified vbpf classifier,
//! and a simulated NVMe SSD — write data, read it back.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use nvmetro::core::classify::Classifier;
use nvmetro::core::engine::RouterBuilder;
use nvmetro::core::policy::{EnginePolicy, PollPolicy};
use nvmetro::core::router::VmBinding;
use nvmetro::core::{passthrough_program, Partition, VirtualController, VmConfig};
use nvmetro::device::{CompletionMode, SimSsd, SsdConfig};
use nvmetro::insight::{assemble, chrome_trace, prometheus_text};
use nvmetro::nvme::{CqPair, SqPair, SubmissionEntry};
use nvmetro::sim::cost::CostModel;
use nvmetro::sim::Executor;
use nvmetro::telemetry::{lifecycle_table, Metric, Telemetry};

fn main() {
    // 0. A telemetry registry: every worker below registers a shard, and
    //    the datapath emits lifecycle events into a shared trace ring.
    let telemetry = Telemetry::enabled();

    // 1. A simulated 970-EVO-Plus-class SSD.
    let mut ssd = SimSsd::new("ssd", SsdConfig::default());
    let store = ssd.store();
    ssd.attach_telemetry(telemetry.register_worker());

    // 2. A VM with a virtual NVMe controller: one queue pair, 6 GB memory.
    let mut vc = VirtualController::new(VmConfig {
        id: 0,
        mem_bytes: 1 << 28,
        queue_pairs: 1,
        queue_depth: 256,
        partition: Partition::whole(1 << 31),
    });
    let mem = vc.memory();
    let (guest_sq, guest_cq) = vc.take_guest_queue(0);
    let (vsqs, vcqs) = vc.take_router_queues();

    // 3. Fast-path queues on the device.
    let (hsq_p, hsq_c) = SqPair::new(256);
    let (hcq_p, hcq_c) = CqPair::new(256);
    ssd.add_queue(hsq_c, hcq_p, mem.clone(), CompletionMode::Polled);

    // 4. The router, built through `RouterBuilder`, with the paper's
    //    dummy classifier — real, verified vbpf bytecode that returns
    //    SEND_HQ | WILL_COMPLETE_HQ. `shards(n)` would split queue groups
    //    across n router shards; one VM with one queue pair needs one.
    //    The datapath knobs travel as one typed `EnginePolicy` (poll
    //    policy and batch bound): here the poll governor parks the shard
    //    between requests (~0 idle CPU) and the batch stays at its
    //    default.
    let engine = RouterBuilder::new("router")
        .cost(CostModel::default())
        .policy(EnginePolicy::new().poll(PollPolicy::adaptive()))
        .table_capacity(1024)
        .telemetry(&telemetry)
        .vm(VmBinding {
            vm_id: 0,
            mem: mem.clone(),
            partition: Partition::whole(1 << 31),
            vsqs,
            vcqs,
            hsq: hsq_p,
            hcq: hcq_c,
            kernel: None,
            notify: None,
            classifier: Classifier::Bpf(passthrough_program()),
        })
        .build();

    // 5. Guest I/O: write 4 KiB, then read it back.
    let payload: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
    let wbuf = mem.alloc(4096);
    mem.write(wbuf, &payload);
    let (p1, p2) = nvmetro::mem::build_prps(&mem, wbuf, 4096);
    let mut write = SubmissionEntry::write(1, 2048, 8, p1, p2);
    write.cid = 1;
    guest_sq.push(write).expect("submit write");

    // 6. Run the virtual-time executor until quiescent.
    let mut ex = Executor::new();
    engine.run_virtual(&mut ex);
    ex.add(Box::new(ssd));
    let report = ex.run(u64::MAX);

    let cqe = guest_cq.pop().expect("write completion");
    println!(
        "write cid={} status_ok={} completed at t={:.1}us",
        cqe.cid,
        !cqe.status().is_error(),
        report.duration as f64 / 1000.0
    );
    assert!(!cqe.status().is_error());

    // The bytes really are on the (virtual) flash:
    assert_eq!(store.read_vec(2048, 8), payload);
    println!(
        "on-disk bytes verified at LBA 2048 ({} bytes)",
        payload.len()
    );
    println!("per-actor CPU: {:?}", report.actor_cpu);

    // 7. What did the datapath actually do? Ask telemetry: aggregated
    //    counters, per-route latency, and the write's full lifecycle.
    let snap = telemetry.snapshot();
    println!("\n{}", snap.render());
    if let Some(req) = snap.requests().first() {
        let life = snap.lifecycle(req.vm, req.vsq, req.tag);
        println!("{}", lifecycle_table(&life).render());
    }

    // 8. Insight: fold the raw events into per-request spans, then export
    //    them two ways — a Chrome `trace_event` file (open it in
    //    chrome://tracing or https://ui.perfetto.dev) and a
    //    Prometheus-style text exposition for scraping.
    let spans = assemble(&snap);
    println!(
        "insight: {} span(s) reconstructed, coverage {:.0}% of {} completed request(s)",
        spans.spans.len(),
        spans.coverage(snap.get(Metric::Completed)) * 100.0,
        snap.get(Metric::Completed),
    );
    if let Some(span) = spans.spans.iter().find(|s| s.complete) {
        println!(
            "  write span: {} events over {:.1}us end to end",
            span.events.len(),
            span.latency_ns() as f64 / 1000.0
        );
    }
    let trace = chrome_trace(&spans.spans, &telemetry.worker_names());
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/quickstart_trace.json", &trace).expect("write trace");
    println!(
        "chrome trace -> target/quickstart_trace.json ({} bytes)",
        trace.len()
    );
    let prom = prometheus_text(&snap);
    let preview: Vec<&str> = prom.lines().take(4).collect();
    println!(
        "prometheus exposition ({} lines), head:",
        prom.lines().count()
    );
    for line in preview {
        println!("  {line}");
    }
    println!("quickstart OK");
}
