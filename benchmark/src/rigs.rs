//! The five workloads and the rig each one runs on, built from the
//! crates' public API only. A rig is built fresh for every round.

use crate::gen::{DataPlan, Guest, GuestCfg, OpenLoop, Pacing, LBAS_4K};
use crate::rng::derive;
use crate::timed::{ChildCtx, Probed, Shared, Timed, TimedKernel, TraceCtx};
use nvmetro_blackbox::{Blackbox, Recorder, RecorderConfig};
use nvmetro_core::classify::{classifier_verifier_config, verdict_bits, Classifier};
use nvmetro_core::engine::{Engine, EngineVm, QueueBinding, RouterBuilder};
use nvmetro_core::router::{KernelPath, NotifyBinding, Router};
use nvmetro_core::uif::UifRunner;
use nvmetro_core::{offset_program, Partition, VirtualController, VmConfig};
use nvmetro_crypto::Xts;
use nvmetro_device::{BlockStore, CompletionMode, SimSsd, SsdConfig};
use nvmetro_fleet::{CoalesceConfig, FleetConfig};
use nvmetro_functions::{build_encryptor_classifier, CryptoBackend, EncryptorUif};
use nvmetro_insight::{StallWatchdog, WatchdogConfig};
use nvmetro_kernel::{DmConfig, KernelDm, RouterKernelPath};
use nvmetro_mem::GuestMemory;
use nvmetro_nvme::{CqPair, SqPair, LBA_SIZE};
use nvmetro_sim::cost::CostModel;
use nvmetro_sim::{Actor, ActorThread, Executor, US};
use nvmetro_telemetry::{Telemetry, TelemetryConfig};
use nvmetro_vbpf::{ProgramBuilder, Vm};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Fast4k,
    KernelRw128k,
    NotifyXts4k,
    FleetHot256,
    ThreadsFast4k,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Fast4k,
        Workload::KernelRw128k,
        Workload::NotifyXts4k,
        Workload::FleetHot256,
        Workload::ThreadsFast4k,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fast4k => "fast_4k",
            Workload::KernelRw128k => "kernel_rw_128k",
            Workload::NotifyXts4k => "notify_xts_4k",
            Workload::FleetHot256 => "fleet_hot_256",
            Workload::ThreadsFast4k => "threads_fast_4k",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Real threads: wall-clock only, counts not exact.
    pub fn threaded(self) -> bool {
        self == Workload::ThreadsFast4k
    }

    /// Requests per round: sized for roughly half a second of drive loop
    /// on the 2-core sandbox the benchmark was written on.
    pub fn requests(self, quick: bool) -> u64 {
        if quick {
            return 1_000;
        }
        match self {
            Workload::Fast4k | Workload::ThreadsFast4k => 1_000_000,
            Workload::KernelRw128k => 8_000,
            Workload::NotifyXts4k => 4_000,
            Workload::FleetHot256 => 16_000,
        }
    }

    /// Requests of the untimed warm-up section that ends a rig's set-up.
    pub fn warmup(self, quick: bool) -> u64 {
        self.requests(quick) / 20
    }

    /// Mean polls between two timed ones in a traced round. The fast
    /// workloads poll 24 times per request at 20-60 ns a poll, so timing
    /// every poll would cost more than the polls. The others spend
    /// microseconds per request in a few uneven polls, where a sample
    /// would be noisy and timing all of them costs a percent or two.
    pub fn sample_gap(self) -> u64 {
        match self {
            Workload::Fast4k | Workload::ThreadsFast4k => 64,
            Workload::FleetHot256 => 8,
            Workload::KernelRw128k | Workload::NotifyXts4k => 1,
        }
    }

    /// Request-sized blocks in the prefilled data set (data workloads).
    fn set_blocks(self, quick: bool) -> u64 {
        match (self, quick) {
            (Workload::KernelRw128k, false) => 1_024, // 128 MiB
            (Workload::KernelRw128k, true) => 64,
            (Workload::NotifyXts4k, false) => 2_048, // 8 MiB
            (Workload::NotifyXts4k, true) => 128,
            _ => 0,
        }
    }

    /// Bytes move between guest memory and the device's store.
    pub fn moves_data(self) -> bool {
        matches!(self, Workload::KernelRw128k | Workload::NotifyXts4k)
    }

    /// The count that proves every request took the route the workload is
    /// named for.
    pub fn route_metric(self) -> &'static str {
        match self {
            Workload::KernelRw128k => "core.route_kernel_share",
            Workload::NotifyXts4k => "core.route_notify_share",
            _ => "core.route_fast_share",
        }
    }
}

/// First physical LBA of every VM partition: classifiers and dm-linear
/// must translate, a request that reaches the device untranslated lands
/// outside the data set.
pub const PART_OFFSET: u64 = 4096;
const FAST_SPAN_LBAS: u64 = 1 << 24; // 8 GiB
const XTS_KEY: [u8; 64] = [0x42; 64];
pub const FLEET_TENANTS: usize = 256;
const FLEET_SHARDS: usize = 4;
/// Offered rate of `fleet_hot_256`. A constant: chosen once so that no
/// arrival is refused at the commit that added the benchmark.
const FLEET_IOPS: f64 = 400_000.0;
/// Time scale of the threaded deployment: modelled time runs 100x faster
/// than the wall clock, which puts the modelled device far above what the
/// software can drive, so the number measures the software.
pub const THREAD_TIME_SCALE: f64 = 100.0;

/// Everything a rig is made of, not yet deployed.
struct Parts {
    guest: Guest,
    engine: Engine,
    ssd: SimSsd,
    uif: Option<UifRunner>,
    watchdog: Option<StallWatchdog>,
    recorder: Option<Recorder>,
    telemetry: Telemetry,
    kernel_ctx: Option<Arc<ChildCtx>>,
}

fn ssd(seed: u64, capacity_lbas: u64, cost: &CostModel, move_data: bool) -> SimSsd {
    SimSsd::new(
        "ssd",
        SsdConfig {
            capacity_lbas,
            cost: cost.clone(),
            move_data,
            seed: derive(seed, 0x55d),
            ..Default::default()
        },
    )
}

/// `return SEND_KQ | WILL_COMPLETE_KQ;` as verified bytecode: every I/O
/// takes the kernel route, untranslated (dm-linear adds the offset).
fn kernel_route_program() -> Vm {
    let mut b = ProgramBuilder::new();
    b.lddw(
        nvmetro_vbpf::isa::R0,
        verdict_bits::SEND_KQ | verdict_bits::WILL_COMPLETE_KQ,
    )
    .exit();
    let (insns, maps) = b.build();
    Vm::new(
        nvmetro_vbpf::verify(insns, maps, &classifier_verifier_config())
            .expect("kernel-route classifier verifies"),
    )
}

/// One VM with one queue pair of depth `qd`, on one shard.
fn single_vm(w: Workload, seed: u64, quick: bool, trace: &Option<Arc<TraceCtx>>) -> Parts {
    let cost = CostModel::default();
    let (qd, nlb, write_share, blocks) = match w {
        Workload::KernelRw128k => (8, 256, 0.5, w.set_blocks(quick)),
        Workload::NotifyXts4k => (16, LBAS_4K, 0.3, w.set_blocks(quick)),
        _ => (32, LBAS_4K, 0.0, FAST_SPAN_LBAS / LBAS_4K as u64),
    };
    let partition = Partition {
        lba_offset: PART_OFFSET,
        lba_count: blocks * nlb as u64,
    };
    let mut ssd = ssd(
        seed,
        PART_OFFSET + partition.lba_count,
        &cost,
        w.moves_data(),
    );
    let mut vc = VirtualController::new(VmConfig {
        id: 0,
        mem_bytes: 1 << 24,
        queue_pairs: 1,
        queue_depth: 64,
        partition,
    });
    let mem = vc.memory();
    let (gsq, gcq) = vc.take_guest_queue(0);
    let (vsqs, vcqs) = vc.take_router_queues();
    let (hsq_p, hsq_c) = SqPair::new(256);
    let (hcq_p, hcq_c) = CqPair::new(256);
    ssd.add_queue(hsq_c, hcq_p, mem.clone(), CompletionMode::Polled);

    let mut kernel: Option<Box<dyn KernelPath>> = None;
    let mut kernel_ctx = None;
    let mut notify = None;
    let mut uif = None;
    let classifier = match w {
        Workload::KernelRw128k => {
            let (ksq_p, ksq_c) = SqPair::new(256);
            let (kcq_p, kcq_c) = CqPair::new(256);
            ssd.add_queue(ksq_c, kcq_p, mem.clone(), CompletionMode::Interrupt);
            let dm = KernelDm::new(
                cost.clone(),
                DmConfig::Linear {
                    offset: PART_OFFSET,
                },
                vec![(ksq_p, kcq_c)],
                mem.clone(),
            );
            let ctx = Arc::new(ChildCtx::default());
            kernel = Some(Box::new(TimedKernel::new(
                RouterKernelPath::new(dm),
                trace.clone(),
                ctx.clone(),
            )));
            kernel_ctx = Some(ctx);
            Classifier::Bpf(kernel_route_program())
        }
        Workload::NotifyXts4k => {
            let (nsq_p, nsq_c) = SqPair::new(256);
            let (ncq_p, ncq_c) = CqPair::new(256);
            let (bsq_p, bsq_c) = SqPair::new(256);
            let (bcq_p, bcq_c) = CqPair::new(256);
            let host_mem = Arc::new(GuestMemory::new(1 << 26));
            ssd.add_queue(bsq_c, bcq_p, host_mem.clone(), CompletionMode::Polled);
            uif = Some(UifRunner::new(
                "uif-encryptor",
                cost.clone(),
                nsq_c,
                ncq_p,
                mem.clone(),
                (bsq_p, bcq_c),
                host_mem,
                Box::new(EncryptorUif::new(
                    CryptoBackend::Xts(Box::new(Xts::new(&XTS_KEY))),
                    PART_OFFSET,
                )),
                cost.uif_crypto_threads,
                true,
            ));
            notify = Some(NotifyBinding {
                nsq: nsq_p,
                ncq: ncq_c,
            });
            Classifier::Bpf(build_encryptor_classifier(PART_OFFSET))
        }
        _ => Classifier::Bpf(offset_program(PART_OFFSET)),
    };
    let engine = RouterBuilder::new("router")
        .cost(cost)
        .table_capacity(1024)
        .vm(EngineVm {
            vm_id: 0,
            mem: mem.clone(),
            partition,
            queues: vec![QueueBinding {
                vsqs,
                vcqs,
                hsq: hsq_p,
                hcq: hcq_c,
                kernel,
                notify,
                classifier,
            }],
        })
        .build();
    let plan = w
        .moves_data()
        .then(|| DataPlan::new(mem, derive(seed, 0xda7a), blocks, nlb));
    let guest = Guest::new(
        GuestCfg {
            seed,
            nlb,
            write_share,
            blocks,
            pacing: Pacing::Closed { qd },
        },
        vec![(gsq, gcq)],
        plan,
    );
    Parts {
        guest,
        engine,
        ssd,
        uif,
        watchdog: None,
        recorder: None,
        telemetry: Telemetry::disabled(),
        kernel_ctx,
    }
}

/// 256 single-group tenants on 4 shards: fleet scheduler, coalescing
/// window, telemetry, stall watchdog and flight recorder all on.
fn fleet(seed: u64) -> Parts {
    let open = OpenLoop {
        total_iops: FLEET_IOPS,
        zipf_theta: 1.1,
        pareto_alpha: 1.5,
        cap: 8,
        hot_slots: 64,
        private_slots: 64,
        hot_share: 0.5,
    };
    // A device fast and wide enough that router, scheduler and coalescer
    // shape the outcome, not the flash.
    let cost = CostModel {
        ssd_channels: 64,
        ssd_read_lat: 5 * US,
        ssd_cmd_overhead: 150,
        ssd_cmd_overhead_write: 300,
        ssd_jitter: 0.0,
        ..Default::default()
    };
    let telemetry = Telemetry::with_config(TelemetryConfig {
        trace_capacity: 1 << 16,
    });
    let slots = open.hot_slots + FLEET_TENANTS as u64 * open.private_slots;
    // Every tenant sees the whole namespace: the hot set is a shared base
    // image, which is what makes cross-VM coalescing legal.
    let partition = Partition {
        lba_offset: PART_OFFSET,
        lba_count: slots * LBAS_4K as u64,
    };
    let mut ssd = ssd(seed, PART_OFFSET + partition.lba_count, &cost, false);
    ssd.attach_telemetry(telemetry.register_worker_named("ssd"));
    let mem = Arc::new(GuestMemory::new(1 << 20));
    let mut builder = RouterBuilder::new("router")
        .cost(cost)
        .shards(FLEET_SHARDS)
        .table_capacity(4096)
        .telemetry(&telemetry)
        .fleet(FleetConfig::default())
        .coalesce(CoalesceConfig::default());
    let mut ends = Vec::with_capacity(FLEET_TENANTS);
    for tenant in 0..FLEET_TENANTS {
        let (vsq_p, vsq_c) = SqPair::new(32);
        let (vcq_p, vcq_c) = CqPair::new(32);
        let (hsq_p, hsq_c) = SqPair::new(32);
        let (hcq_p, hcq_c) = CqPair::new(32);
        ssd.add_queue(hsq_c, hcq_p, mem.clone(), CompletionMode::Polled);
        builder = builder.vm(EngineVm {
            vm_id: tenant as u32,
            mem: mem.clone(),
            partition,
            queues: vec![QueueBinding {
                vsqs: vec![vsq_c],
                vcqs: vec![vcq_p],
                hsq: hsq_p,
                hcq: hcq_c,
                kernel: None,
                notify: None,
                classifier: Classifier::Bpf(offset_program(PART_OFFSET)),
            }],
        });
        ends.push((vsq_p, vcq_c));
    }
    let engine = builder.build();
    let (watchdog, health) = StallWatchdog::new(
        &telemetry,
        WatchdogConfig {
            interval: 200 * US,
            ..Default::default()
        },
    );
    let recorder = Recorder::new(
        &telemetry,
        Blackbox::new(&RecorderConfig::default()),
        RecorderConfig::default(),
    )
    .with_health(health);
    let guest = Guest::new(
        GuestCfg {
            seed,
            nlb: LBAS_4K,
            write_share: 0.1,
            blocks: 0,
            pacing: Pacing::Open(open),
        },
        ends,
        None,
    );
    Parts {
        guest,
        engine,
        ssd,
        uif: None,
        watchdog: Some(watchdog),
        recorder: Some(recorder),
        telemetry,
        kernel_ctx: None,
    }
}

fn parts(w: Workload, seed: u64, quick: bool, trace: &Option<Arc<TraceCtx>>) -> Parts {
    match w {
        Workload::FleetHot256 => fleet(seed),
        _ => single_vm(w, seed, quick, trace),
    }
}

pub type Handle<A> = Rc<RefCell<Timed<A>>>;

/// A rig deployed on one thread under the discrete-event executor.
pub struct Rig {
    pub ex: Executor,
    pub guest: Handle<Guest>,
    pub routers: Vec<Handle<Router>>,
    pub ssd: Handle<SimSsd>,
    /// Every wrapped actor, in the executor's polling order.
    pub probes: Vec<Rc<RefCell<dyn Probed>>>,
    pub telemetry: Telemetry,
    pub store: Arc<BlockStore>,
}

impl Rig {
    pub fn build(w: Workload, seed: u64, quick: bool, trace: Option<Arc<TraceCtx>>) -> Rig {
        let p = parts(w, seed, quick, &trace);
        let mut ex = Executor::new();
        let mut probes: Vec<Rc<RefCell<dyn Probed>>> = Vec::new();
        // Wraps an actor, hands one handle to the executor, keeps another
        // for the probes and returns the third.
        fn add<A: Actor + 'static>(
            ex: &mut Executor,
            probes: &mut Vec<Rc<RefCell<dyn Probed>>>,
            timed: Timed<A>,
        ) -> Handle<A> {
            let shared = Shared::new(timed);
            let handle = shared.handle();
            ex.add(Box::new(shared));
            probes.push(handle.clone());
            handle
        }
        let store = p.ssd.store();
        let guest = add(
            &mut ex,
            &mut probes,
            Timed::new(p.guest, "gen", 0, trace.clone()),
        );
        let routers = p
            .engine
            .into_shards()
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                let mut t = Timed::new(shard, "core", 1 + i as u64, trace.clone());
                if let Some(ctx) = &p.kernel_ctx {
                    t = t.with_child(ctx.clone());
                }
                add(&mut ex, &mut probes, t)
            })
            .collect();
        if let Some(u) = p.uif {
            add(
                &mut ex,
                &mut probes,
                Timed::new(u, "functions", 100, trace.clone()),
            );
        }
        let ssd = add(
            &mut ex,
            &mut probes,
            Timed::new(p.ssd, "device", 101, trace.clone()),
        );
        if let Some(wd) = p.watchdog {
            let t = Timed::new(wd, "insight", 102, trace.clone()).every_poll();
            add(&mut ex, &mut probes, t);
        }
        if let Some(r) = p.recorder {
            let t = Timed::new(r, "blackbox", 103, trace.clone()).every_poll();
            add(&mut ex, &mut probes, t);
        }
        Rig {
            ex,
            guest,
            routers,
            ssd,
            probes,
            telemetry: p.telemetry,
            store,
        }
    }

    /// Set-up traffic: fills the data set. The kernel workload's set is
    /// plain, so it is written straight into the device's store; the
    /// encrypted set can only be produced by the function under test, so
    /// the guest writes every block once through the notify route.
    pub fn prefill(&mut self, w: Workload) -> Result<(), String> {
        match w {
            Workload::KernelRw128k => {
                let guest = self.guest.borrow();
                let plan = guest.inner.data().expect("data workload");
                let nlb = plan.block_bytes() / LBA_SIZE;
                for b in 0..plan.blocks() {
                    self.store
                        .write_blocks(PART_OFFSET + b * nlb as u64, &plan.expected_block(b));
                }
                Ok(())
            }
            Workload::NotifyXts4k => {
                let now = self.ex.now();
                self.guest.borrow_mut().inner.arm_prefill(now);
                self.ex.run(u64::MAX);
                let s = self.guest.borrow_mut().inner.finish();
                if s.fails.total() == 0 && s.completed == s.attempted {
                    Ok(())
                } else {
                    Err(format!("prefill failed: {:?}", s.fails))
                }
            }
            _ => Ok(()),
        }
    }

    /// What the device's store must hold for `block` of the data set.
    pub fn expected_on_disk(w: Workload, plain: Vec<u8>, block: u64) -> Vec<u8> {
        let mut data = plain;
        if w == Workload::NotifyXts4k {
            // dm-crypt's plain64 tweak: the sector number the guest sees.
            Xts::new(&XTS_KEY).encrypt_sectors(block * LBAS_4K as u64, &mut data);
        }
        data
    }
}

/// The same fast-path rig on real threads: the router shard on its own OS
/// thread, the guest and the device model polled by the calling thread
/// against the same scaled wall clock.
pub struct ThreadRig {
    pub guest: Timed<Guest>,
    pub ssd: Timed<SimSsd>,
    router: RouterThread,
}

enum RouterThread {
    /// Untraced: the deployment call the repository ships.
    Pool(nvmetro_core::threading::Pool),
    /// Traced: the same thread loop around the wrapped shard, which
    /// `stop` hands back with its probe and its public stats.
    Probed(ActorThread<Timed<Router>>),
}

impl ThreadRig {
    pub fn build(w: Workload, seed: u64, quick: bool, trace: Option<Arc<TraceCtx>>) -> ThreadRig {
        let p = parts(w, seed, quick, &trace);
        let router = match &trace {
            None => RouterThread::Pool(p.engine.spawn_threads(THREAD_TIME_SCALE)),
            Some(_) => {
                let shard = p.engine.into_shards().pop().expect("one shard");
                RouterThread::Probed(ActorThread::spawn(
                    Timed::new(shard, "core", 1, trace.clone()),
                    THREAD_TIME_SCALE,
                ))
            }
        };
        ThreadRig {
            guest: Timed::new(p.guest, "gen", 0, trace.clone()),
            ssd: Timed::new(p.ssd, "device", 101, trace),
            router,
        }
    }

    /// Stops and joins the router thread; the wrapped shard comes back
    /// from a traced round.
    pub fn stop(self) -> (Timed<Guest>, Timed<SimSsd>, Option<Timed<Router>>) {
        let router = match self.router {
            RouterThread::Pool(pool) => {
                pool.stop();
                None
            }
            RouterThread::Probed(t) => Some(t.stop()),
        };
        (self.guest, self.ssd, router)
    }
}
