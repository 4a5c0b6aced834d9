//! Every classifier the repo ships must run on the compiled engine: a
//! classifier that the compiler starts rejecting would still route
//! correctly on the interpreter, only slower, so nothing else would fail.

use nvmetro_core::classify::{
    offset_program, partition_offset_program, passthrough_program, Classifier, RequestCtx, HOOK_VSQ,
};
use nvmetro_functions::{build_encryptor_classifier, build_replicator_classifier};
use nvmetro_nvme::{Status, SubmissionEntry};
use nvmetro_vbpf::Tier;

#[test]
fn every_shipped_classifier_runs_compiled() {
    let shipped = [
        ("passthrough", passthrough_program()),
        ("offset", offset_program(10_000)),
        (
            "partition_offset",
            partition_offset_program(10_000, 1 << 20),
        ),
        ("encryptor", build_encryptor_classifier(10_000)),
        ("replicator", build_replicator_classifier(10_000)),
    ];
    for (name, vm) in shipped {
        assert!(vm.is_compiled(), "{name}: compiler rejected the program");
        let mut classifier = Classifier::Bpf(vm);
        for cmd in [
            SubmissionEntry::read(1, 0x40, 8, 0x1000, 0),
            SubmissionEntry::write(2, 0x80, 8, 0x1000, 0),
        ] {
            let mut ctx = RequestCtx::new(HOOK_VSQ, 0, 0, &cmd, Status::SUCCESS, 0);
            let outcome = classifier.run_tiered(&mut ctx, 0);
            assert_eq!(outcome.tier, Some(Tier::Compiled), "{name}");
        }
    }
}
