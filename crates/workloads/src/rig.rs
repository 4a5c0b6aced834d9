//! Solution assembly: builds a complete virtual-time rig for any stack.

use crate::fio::{FioConfig, FioJob, JobStats};
use nvmetro_baselines::mdev::MdevTranslate;
use nvmetro_baselines::{bind_passthrough, build_mdev_router, QemuVirtioBlk, SpdkVhost, VhostScsi};
use nvmetro_core::classify::Classifier;
use nvmetro_core::engine::{EngineVm, QueueBinding, RouterBuilder};
use nvmetro_core::policy::EnginePolicy;
use nvmetro_core::recovery::RecoveryConfig;
use nvmetro_core::router::{NotifyBinding, VmBinding};
use nvmetro_core::uif::UifRunner;
use nvmetro_core::{offset_program, Partition, VirtualController, VmConfig};
use nvmetro_device::{CompletionMode, SimSsd, SsdConfig, Transport};
use nvmetro_faults::FaultPlan;
use nvmetro_functions::{
    build_encryptor_classifier, build_replicator_classifier, CryptoBackend, EncryptorUif,
    ReplicatorUif,
};
use nvmetro_kernel::{DmConfig, KernelDm};
use nvmetro_mem::GuestMemory;
use nvmetro_nvme::{CqPair, SqPair};
use nvmetro_sim::cost::CostModel;
use nvmetro_sim::{Actor, CpuMode, Executor, Ns, Progress};
use nvmetro_telemetry::Telemetry;
use std::sync::Arc;

/// Which storage-virtualization solution to build (§V-B/C/D comparators).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolutionKind {
    /// NVMetro with the dummy (passthrough) vbpf classifier.
    Nvmetro,
    /// MDev-NVMe mediated pass-through.
    Mdev,
    /// Direct PCIe passthrough.
    Passthrough,
    /// In-kernel vhost-scsi.
    Vhost,
    /// QEMU virtio-blk with io_uring.
    Qemu,
    /// SPDK vhost-user.
    Spdk,
    /// NVMetro encryption function (optionally the SGX variant).
    NvmetroEncrypt {
        /// Keep the key in the (simulated) SGX enclave.
        sgx: bool,
    },
    /// dm-crypt under vhost-scsi.
    DmCrypt,
    /// NVMetro replication to a remote NVMe-oF secondary.
    NvmetroReplicate,
    /// dm-mirror under vhost-scsi (remote secondary leg).
    DmMirror,
}

impl SolutionKind {
    /// Display name used in tables (matches the paper's legends).
    pub fn label(self) -> &'static str {
        match self {
            SolutionKind::Nvmetro => "NVMetro",
            SolutionKind::Mdev => "MDev",
            SolutionKind::Passthrough => "Passthrough",
            SolutionKind::Vhost => "Vhost",
            SolutionKind::Qemu => "QEMU",
            SolutionKind::Spdk => "SPDK",
            SolutionKind::NvmetroEncrypt { sgx: false } => "NVMetro Encr.",
            SolutionKind::NvmetroEncrypt { sgx: true } => "NVMetro SGX",
            SolutionKind::DmCrypt => "dm-crypt",
            SolutionKind::NvmetroReplicate => "NVMetro Repl.",
            SolutionKind::DmMirror => "dm-mirror",
        }
    }

    /// The six basic-evaluation solutions (Figs. 3, 4, 6, 11).
    pub fn basic_six() -> [SolutionKind; 6] {
        [
            SolutionKind::Nvmetro,
            SolutionKind::Mdev,
            SolutionKind::Passthrough,
            SolutionKind::Vhost,
            SolutionKind::Qemu,
            SolutionKind::Spdk,
        ]
    }
}

/// Rig-wide options.
#[derive(Clone, Debug)]
pub struct RigOptions {
    /// Calibrated cost model.
    pub cost: CostModel,
    /// Number of VMs (Fig. 5 scalability uses several; everything else 1).
    pub vms: usize,
    /// Device capacity in LBAs (partitioned across VMs).
    pub capacity_lbas: u64,
    /// RNG seed.
    pub seed: u64,
    /// Telemetry registry; disabled by default. When enabled, every actor
    /// built here registers a worker shard and the rig's routers, devices,
    /// kernel paths, and UIFs emit lifecycle events into it.
    pub telemetry: Telemetry,
    /// Seeded fault plan handed to the primary device (and consulted by
    /// any other site the plan names). Empty by default.
    pub fault_plan: FaultPlan,
    /// Router recovery engine configuration; `None` (default) leaves the
    /// router surfacing faults to the guest verbatim.
    pub recovery: Option<RecoveryConfig>,
    /// Router shard count. With more than one shard, router-based rigs
    /// give each VM one queue group per queue pair and the builder spreads
    /// the groups round-robin across shards; `1` (default) reproduces the
    /// single-router wiring used by the calibrated figures.
    pub shards: usize,
    /// Engine datapath policy: poll governor and batch bound. The default
    /// (`EnginePolicy::new()`) is the legacy always-spin engine; set
    /// `poll` to `PollPolicy::adaptive()` for the busy-poll ⇄ park
    /// datapath.
    pub policy: EnginePolicy,
}

impl Default for RigOptions {
    fn default() -> Self {
        RigOptions {
            cost: CostModel::default(),
            vms: 1,
            capacity_lbas: 1 << 24, // 8 GiB span: enough spread, fast sim
            seed: 42,
            telemetry: Telemetry::disabled(),
            fault_plan: FaultPlan::none(),
            recovery: None,
            shards: 1,
            policy: EnginePolicy::new(),
        }
    }
}

/// A fully-wired virtual-time rig ready to run.
pub struct BuiltRig {
    /// The executor owning every actor.
    pub ex: Executor,
    /// Per-job result handles (jobs x VMs).
    pub jobs: Vec<Arc<JobStats>>,
}

/// An actor representing a dedicated thread that spins without doing work
/// accounted elsewhere (SGX switchless worker, extra SPDK reactors).
pub struct IdleBurner {
    name: String,
}

impl IdleBurner {
    /// Creates a burner with a display name.
    pub fn new(name: &str) -> Self {
        IdleBurner {
            name: name.to_string(),
        }
    }
}

impl Actor for IdleBurner {
    fn name(&self) -> &str {
        &self.name
    }
    fn poll(&mut self, _now: Ns) -> Progress {
        Progress::Idle
    }
    fn next_event(&self) -> Option<Ns> {
        None
    }
    fn cpu_mode(&self) -> CpuMode {
        CpuMode::BusyPoll
    }
}

fn ring_depth(qd: u32) -> usize {
    ((qd as usize * 2).next_power_of_two()).max(64)
}

/// Builds the complete rig for `kind` under the given fio config.
pub fn build_fio_rig(kind: SolutionKind, cfg: &FioConfig, opts: &RigOptions) -> BuiltRig {
    let mut jobs: Vec<Arc<JobStats>> = Vec::new();
    let cfg2 = cfg.clone();
    let cost2 = opts.cost.clone();
    let seed = opts.seed;
    let ex = build_rig(
        kind,
        opts,
        cfg.jobs,
        cfg.qd,
        |vm, j, gsq, gcq, partition| {
            let job_lbas = (partition.lba_count / cfg2.jobs as u64).max(1);
            let (job, stats) = FioJob::new(
                &format!("fio-vm{vm}-j{j}"),
                cfg2.clone(),
                cost2.clone(),
                gsq,
                gcq,
                j as u64 * job_lbas,
                job_lbas,
                seed ^ ((vm as u64) << 32) ^ j as u64,
            );
            jobs.push(stats);
            Box::new(job)
        },
    );
    BuiltRig { ex, jobs }
}

/// Builds the rig for `kind` with caller-supplied job actors: one job per
/// queue pair per VM, created by `make_job(vm, job, guest_sq, guest_cq,
/// partition)`. Used by both the fio and YCSB harnesses.
pub fn build_rig<F>(
    kind: SolutionKind,
    opts: &RigOptions,
    queue_pairs: usize,
    qd: u32,
    mut make_job: F,
) -> Executor
where
    F: FnMut(
        usize,
        usize,
        nvmetro_nvme::SqProducer,
        nvmetro_nvme::CqConsumer,
        Partition,
    ) -> Box<dyn Actor>,
{
    let cost = opts.cost.clone();
    let telemetry = opts.telemetry.clone();
    let mut ex = Executor::new();

    // The physical device (data movement off: perf runs model costs only).
    let mut ssd = SimSsd::new(
        "ssd",
        SsdConfig {
            capacity_lbas: opts.capacity_lbas,
            cost: cost.clone(),
            move_data: false,
            seed: opts.seed,
            transport: None,
            faults: opts.fault_plan.clone(),
        },
    );
    ssd.attach_telemetry(telemetry.register_worker_named("ssd"));

    // Remote secondary for the replication solutions.
    let needs_remote = matches!(
        kind,
        SolutionKind::NvmetroReplicate | SolutionKind::DmMirror
    );
    let mut remote = needs_remote.then(|| {
        SimSsd::new(
            "remote-ssd",
            SsdConfig {
                capacity_lbas: opts.capacity_lbas,
                cost: cost.clone(),
                move_data: false,
                seed: opts.seed ^ 0xABCD,
                transport: Some(Transport {
                    one_way: cost.nvmeof_one_way,
                    per_byte: cost.nvmeof_per_byte,
                }),
                // Replica-leg outages are injected at the replicator UIF
                // (`FaultSite::ReplicaLink`); the remote drive itself
                // stays clean so resync has somewhere to land.
                faults: FaultPlan::none(),
            },
        )
    });
    if let Some(remote) = remote.as_mut() {
        remote.attach_telemetry(telemetry.register_worker_named("remote-ssd"));
    }

    let part_lbas = opts.capacity_lbas / opts.vms as u64;
    let depth = ring_depth(qd);

    // Router-based solutions share the router shards across all VMs; the
    // table capacity is per shard, sized for the whole rig so a single
    // shard can absorb every queue group.
    let shards = opts.shards.max(1);
    let table_capacity = (opts.vms * queue_pairs * qd as usize * 2 + 64).min(60_000);
    let mut builder: Option<RouterBuilder> = match kind {
        SolutionKind::Nvmetro
        | SolutionKind::NvmetroEncrypt { .. }
        | SolutionKind::NvmetroReplicate => Some(RouterBuilder::new("router").cost(cost.clone())),
        SolutionKind::Mdev => Some(build_mdev_router(&cost)),
        _ => None,
    };
    builder = builder.map(|b| {
        let mut b = b
            .shards(shards)
            .policy(opts.policy)
            .table_capacity(table_capacity)
            .telemetry(&telemetry);
        if let Some(recovery) = opts.recovery {
            b = b.recovery(recovery);
        }
        b
    });

    for vm in 0..opts.vms {
        let partition = Partition {
            lba_offset: vm as u64 * part_lbas,
            lba_count: part_lbas,
        };
        let mut vc = VirtualController::new(VmConfig {
            id: vm as u32,
            mem_bytes: 1 << 24,
            queue_pairs,
            queue_depth: depth,
            partition,
        });
        let mem = vc.memory();

        // Jobs: one per queue pair.
        for j in 0..queue_pairs {
            let (gsq, gcq) = vc.take_guest_queue(j);
            ex.add(make_job(vm, j, gsq, gcq, partition));
        }

        match kind {
            SolutionKind::Passthrough => {
                // No partition translation: passthrough owns the device
                // (give each VM its own namespace slice by mapping queue
                // regions; with one VM this is the whole disk).
                bind_passthrough(&mut ssd, &mut vc);
            }
            SolutionKind::Nvmetro | SolutionKind::Mdev => {
                let (vsqs, vcqs) = vc.take_router_queues();
                let make_classifier = |kind: SolutionKind| {
                    if kind == SolutionKind::Mdev {
                        Classifier::Native(Box::new(MdevTranslate {
                            lba_offset: partition.lba_offset,
                        }))
                    } else {
                        Classifier::Bpf(offset_program(partition.lba_offset))
                    }
                };
                let mut queues = Vec::new();
                if shards > 1 {
                    // One queue group per VSQ/VCQ pair: each gets its own
                    // host queue on the device and its own classifier, so
                    // the builder can spread the pairs across shards.
                    for (vsq, vcq) in vsqs.into_iter().zip(vcqs) {
                        let (hsq_p, hsq_c) = SqPair::new(4096);
                        let (hcq_p, hcq_c) = CqPair::new(4096);
                        ssd.add_queue(hsq_c, hcq_p, mem.clone(), CompletionMode::Polled);
                        queues.push(QueueBinding {
                            vsqs: vec![vsq],
                            vcqs: vec![vcq],
                            hsq: hsq_p,
                            hcq: hcq_c,
                            kernel: None,
                            notify: None,
                            classifier: make_classifier(kind),
                        });
                    }
                } else {
                    let (hsq_p, hsq_c) = SqPair::new(4096);
                    let (hcq_p, hcq_c) = CqPair::new(4096);
                    ssd.add_queue(hsq_c, hcq_p, mem.clone(), CompletionMode::Polled);
                    queues.push(QueueBinding {
                        vsqs,
                        vcqs,
                        hsq: hsq_p,
                        hcq: hcq_c,
                        kernel: None,
                        notify: None,
                        classifier: make_classifier(kind),
                    });
                }
                builder = Some(builder.take().unwrap().vm(EngineVm {
                    vm_id: vm as u32,
                    mem: mem.clone(),
                    partition,
                    queues,
                }));
            }
            SolutionKind::NvmetroEncrypt { sgx } => {
                let (vsqs, vcqs) = vc.take_router_queues();
                let (hsq_p, hsq_c) = SqPair::new(4096);
                let (hcq_p, hcq_c) = CqPair::new(4096);
                ssd.add_queue(hsq_c, hcq_p, mem.clone(), CompletionMode::Polled);
                let (nsq_p, nsq_c) = SqPair::new(4096);
                let (ncq_p, ncq_c) = CqPair::new(4096);
                let (bsq_p, bsq_c) = SqPair::new(4096);
                let (bcq_p, bcq_c) = CqPair::new(4096);
                let host_mem = Arc::new(GuestMemory::new(1 << 24));
                ssd.add_queue(bsq_c, bcq_p, host_mem.clone(), CompletionMode::Polled);
                let workers = if sgx { 1 } else { cost.uif_crypto_threads };
                let mut runner = UifRunner::new(
                    &format!("uif-encrypt-vm{vm}"),
                    cost.clone(),
                    nsq_c,
                    ncq_p,
                    mem.clone(),
                    (bsq_p, bcq_c),
                    host_mem,
                    Box::new(
                        EncryptorUif::new(CryptoBackend::ModelOnly { sgx }, partition.lba_offset)
                            .with_telemetry(
                                telemetry.register_worker_named(&format!("encryptor-vm{vm}")),
                            ),
                    ),
                    workers,
                    false,
                );
                runner.attach_telemetry(telemetry.register_worker_named(&format!("uif-vm{vm}")));
                ex.add(Box::new(runner));
                // The SGX switchless thread parks when no calls are
                // pending; its steady-state CPU is inside the runner's
                // adaptive accounting.
                builder = Some(builder.take().unwrap().vm(VmBinding {
                    vm_id: vm as u32,
                    mem: mem.clone(),
                    partition,
                    vsqs,
                    vcqs,
                    hsq: hsq_p,
                    hcq: hcq_c,
                    kernel: None,
                    notify: Some(NotifyBinding {
                        nsq: nsq_p,
                        ncq: ncq_c,
                    }),
                    classifier: Classifier::Bpf(build_encryptor_classifier(partition.lba_offset)),
                }));
            }
            SolutionKind::NvmetroReplicate => {
                let (vsqs, vcqs) = vc.take_router_queues();
                let (hsq_p, hsq_c) = SqPair::new(4096);
                let (hcq_p, hcq_c) = CqPair::new(4096);
                ssd.add_queue(hsq_c, hcq_p, mem.clone(), CompletionMode::Polled);
                let (nsq_p, nsq_c) = SqPair::new(4096);
                let (ncq_p, ncq_c) = CqPair::new(4096);
                let (bsq_p, bsq_c) = SqPair::new(4096);
                let (bcq_p, bcq_c) = CqPair::new(4096);
                let host_mem = Arc::new(GuestMemory::new(1 << 24));
                remote.as_mut().unwrap().add_queue(
                    bsq_c,
                    bcq_p,
                    host_mem.clone(),
                    CompletionMode::Polled,
                );
                let mut runner = UifRunner::new(
                    &format!("uif-replicate-vm{vm}"),
                    cost.clone(),
                    nsq_c,
                    ncq_p,
                    mem.clone(),
                    (bsq_p, bcq_c),
                    host_mem,
                    Box::new(
                        ReplicatorUif::new()
                            .with_telemetry(
                                telemetry.register_worker_named(&format!("replicator-vm{vm}")),
                            )
                            .with_faults(&opts.fault_plan),
                    ),
                    1,
                    false,
                );
                runner.attach_telemetry(telemetry.register_worker_named(&format!("uif-vm{vm}")));
                ex.add(Box::new(runner));
                builder = Some(builder.take().unwrap().vm(VmBinding {
                    vm_id: vm as u32,
                    mem: mem.clone(),
                    partition,
                    vsqs,
                    vcqs,
                    hsq: hsq_p,
                    hcq: hcq_c,
                    kernel: None,
                    notify: Some(NotifyBinding {
                        nsq: nsq_p,
                        ncq: ncq_c,
                    }),
                    classifier: Classifier::Bpf(build_replicator_classifier(partition.lba_offset)),
                }));
            }
            SolutionKind::Vhost | SolutionKind::DmCrypt | SolutionKind::DmMirror => {
                let (vsqs, vcqs) = vc.take_router_queues();
                let (dsq_p, dsq_c) = SqPair::new(4096);
                let (dcq_p, dcq_c) = CqPair::new(4096);
                ssd.add_queue(dsq_c, dcq_p, mem.clone(), CompletionMode::Interrupt);
                let mut ports = vec![(dsq_p, dcq_c)];
                let dm_config = match kind {
                    SolutionKind::DmCrypt => DmConfig::Crypt {
                        offset: partition.lba_offset,
                        key: None,
                    },
                    SolutionKind::DmMirror => {
                        let (rsq_p, rsq_c) = SqPair::new(4096);
                        let (rcq_p, rcq_c) = CqPair::new(4096);
                        remote.as_mut().unwrap().add_queue(
                            rsq_c,
                            rcq_p,
                            mem.clone(),
                            CompletionMode::Interrupt,
                        );
                        ports.push((rsq_p, rcq_c));
                        DmConfig::Mirror {
                            offset: partition.lba_offset,
                        }
                    }
                    _ => DmConfig::Linear {
                        offset: partition.lba_offset,
                    },
                };
                let dm = KernelDm::new(cost.clone(), dm_config, ports, mem.clone());
                ex.add(Box::new(VhostScsi::new(
                    &format!("vhost-vm{vm}"),
                    cost.clone(),
                    vsqs,
                    vcqs,
                    dm,
                )));
            }
            SolutionKind::Qemu => {
                let (vsqs, vcqs) = vc.take_router_queues();
                let (dsq_p, dsq_c) = SqPair::new(4096);
                let (dcq_p, dcq_c) = CqPair::new(4096);
                ssd.add_queue(dsq_c, dcq_p, mem.clone(), CompletionMode::Polled);
                ex.add(Box::new(QemuVirtioBlk::new(
                    &format!("qemu-vm{vm}"),
                    cost.clone(),
                    vsqs,
                    vcqs,
                    dsq_p,
                    dcq_c,
                    partition.lba_offset,
                    true,
                )));
            }
            SolutionKind::Spdk => {
                let (vsqs, vcqs) = vc.take_router_queues();
                let (dsq_p, dsq_c) = SqPair::new(4096);
                let (dcq_p, dcq_c) = CqPair::new(4096);
                ssd.add_queue(dsq_c, dcq_p, mem.clone(), CompletionMode::Polled);
                ex.add(Box::new(SpdkVhost::new(
                    &format!("spdk-vm{vm}"),
                    cost.clone(),
                    vsqs,
                    vcqs,
                    dsq_p,
                    dcq_c,
                    partition.lba_offset,
                )));
                for r in 1..cost.spdk_reactors {
                    ex.add(Box::new(IdleBurner::new(&format!("spdk-reactor-{r}"))));
                }
            }
        }
    }

    if let Some(builder) = builder {
        builder.build().run_virtual(&mut ex);
    }
    ex.add(Box::new(ssd));
    if let Some(remote) = remote {
        ex.add(Box::new(remote));
    }

    ex
}
