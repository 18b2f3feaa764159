//! Pins the commit-outcome encoding of every step result.
//!
//! Replay recomputes each outcome with the same function it checks, and
//! digests hash state rather than outcomes, so neither notices if an
//! encoding moves. Yet the log's readers depend on them: `replay::audit`
//! reads page counts off `protect` outcomes, and `forensic_chain` reads
//! pids, segment ids and channel ids off `spawn`, `shm_create` and
//! `create_channel` outcomes. Every literal below is the value recorded
//! logs already carry; changing one breaks every log recorded before.

use freepart_simos::core::{outcome_of_step, StepResult};
use freepart_simos::{
    Addr, ChannelId, CommitOutcome, Errno, Fault, FaultKind, Fd, Pid, ShmId, SimError, StepValue,
    SyscallNo, SyscallRet, WindowId,
};

fn ok(v: StepValue) -> CommitOutcome {
    let r: StepResult = Ok(v);
    outcome_of_step(&r)
}

fn err(e: SimError) -> CommitOutcome {
    let r: StepResult = Err(e);
    outcome_of_step(&r)
}

#[test]
fn identifiers_and_numbers_summarize_transparently() {
    assert_eq!(ok(StepValue::Unit), CommitOutcome::Ok(0));
    assert_eq!(ok(StepValue::Num(7)), CommitOutcome::Ok(7));
    assert_eq!(ok(StepValue::Proc(Pid(3))), CommitOutcome::Ok(3));
    assert_eq!(ok(StepValue::Addr(Addr(0x1000))), CommitOutcome::Ok(0x1000));
    assert_eq!(ok(StepValue::Flag(false)), CommitOutcome::Ok(0));
    assert_eq!(ok(StepValue::Flag(true)), CommitOutcome::Ok(1));
    assert_eq!(ok(StepValue::Seg(ShmId(5))), CommitOutcome::Ok(5));
    assert_eq!(ok(StepValue::Chan(ChannelId(2))), CommitOutcome::Ok(2));
    assert_eq!(ok(StepValue::Win(WindowId(4))), CommitOutcome::Ok(4));
}

#[test]
fn optional_values_tag_the_present_arm() {
    assert_eq!(ok(StepValue::ProcOpt(None)), CommitOutcome::Ok(0));
    assert_eq!(
        ok(StepValue::ProcOpt(Some(Pid(3)))),
        CommitOutcome::Ok(0x3df5_8e12_15de_9442)
    );
    assert_eq!(ok(StepValue::PayloadOpt(None)), CommitOutcome::Ok(0));
    assert_eq!(
        ok(StepValue::PayloadOpt(Some(b"abc".to_vec()))),
        CommitOutcome::Ok(0xc799_0bd0_5590_c270)
    );
    assert_eq!(ok(StepValue::KeyOpt(None)), CommitOutcome::Ok(0));
    assert_eq!(
        ok(StepValue::KeyOpt(Some(b'q'))),
        CommitOutcome::Ok(0x8db7_13f4_c8b0_6e70)
    );
}

#[test]
fn faults_syscall_returns_and_errors_hash() {
    let fault = Fault {
        pid: Pid(3),
        kind: FaultKind::SyscallDenied(SyscallNo::Fork),
        addr: Some(Addr(0x2000)),
    };
    assert_eq!(
        ok(StepValue::Crash(fault.clone())),
        CommitOutcome::Ok(0xbe5d_e5d6_53e3_5be2)
    );
    let ret = |r| ok(StepValue::Ret(r));
    assert_eq!(ret(SyscallRet::Ok), CommitOutcome::Ok(1));
    assert_eq!(
        ret(SyscallRet::NewFd(Fd(3))),
        CommitOutcome::Ok(0x1efa_c709_0aef_4a21)
    );
    assert_eq!(
        ret(SyscallRet::Bytes(b"xy".to_vec())),
        CommitOutcome::Ok(0x22dd_eba1_2853_b3b8)
    );
    assert_eq!(
        ret(SyscallRet::Num(9)),
        CommitOutcome::Ok(0x92bc_1b75_8e26_c3ad)
    );
    assert_eq!(
        ret(SyscallRet::Mapped(Addr(0x3000))),
        CommitOutcome::Ok(0x9b6e_b93d_def4_e995)
    );
    assert_eq!(
        err(SimError::BadChannel),
        CommitOutcome::Err(0x04e5_312d_9042_8ad5)
    );
    assert_eq!(
        err(SimError::Errno(Errno::Eperm)),
        CommitOutcome::Err(0x1e8a_557c_adc6_c675)
    );
    assert_eq!(
        err(SimError::Fault(fault)),
        CommitOutcome::Err(0x80e7_1856_dae2_a414)
    );
}
