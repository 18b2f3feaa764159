//! Syscall dispatch: the per-call bodies behind [`CommitOp::Syscall`].
//!
//! Split out of [`step`](crate::core::step::step) so each core module
//! stays within the line budget the purity guard enforces. Everything
//! here obeys the same rules as `step` itself: state in, result out,
//! no I/O, no ambient clock, no external entropy (the `Getrandom`
//! syscall draws from the deterministic [`EntropyStream`] seeded at
//! kernel construction).
//!
//! [`CommitOp::Syscall`]: crate::commit::CommitOp::Syscall
//! [`EntropyStream`]: super::state::KernelState

use crate::device::DeviceKind;
use crate::error::{Errno, FaultKind, SimResult};
use crate::mem::Perms;
use crate::process::{FdTarget, Pid, ProcessState};
use crate::syscall::{Syscall, SyscallRet};

use super::state::KernelState;
use super::step::crash;

/// Executes one already-filter-checked syscall body for `pid`.
pub(super) fn dispatch(state: &mut KernelState, pid: Pid, call: Syscall) -> SimResult<SyscallRet> {
    use Syscall as S;
    match call {
        // ---------------- file I/O ----------------
        S::Openat { path, create } => {
            if path.starts_with("/dev/video") {
                let fd = state
                    .process_mut(pid)?
                    .install_fd(FdTarget::Device(DeviceKind::Camera));
                return Ok(SyscallRet::NewFd(fd));
            }
            state.fs.open(&path, create)?;
            let fd = state
                .process_mut(pid)?
                .install_fd(FdTarget::File { path, offset: 0 });
            Ok(SyscallRet::NewFd(fd))
        }
        S::Close { fd } => {
            state.process_mut(pid)?.fd_table.remove(&fd);
            Ok(SyscallRet::Ok)
        }
        S::Read { fd, len } => {
            let target = state
                .process(pid)?
                .fd_target(fd)
                .cloned()
                .ok_or(Errno::Ebadf)?;
            match target {
                FdTarget::File { path, offset } => {
                    let bytes = state.fs.read_at(&path, offset, len)?;
                    let ns = state.cost.file_cost(bytes.len() as u64);
                    state.charge_to(pid, ns);
                    if let Some(FdTarget::File { offset, .. }) =
                        state.process_mut(pid)?.fd_table.get_mut(&fd)
                    {
                        *offset += bytes.len() as u64;
                    }
                    Ok(SyscallRet::Bytes(bytes))
                }
                FdTarget::Device(DeviceKind::Camera) => {
                    let frame = state
                        .camera
                        .as_mut()
                        .map(|c| c.capture())
                        .ok_or(Errno::Enosys)?;
                    let ns = state.cost.file_cost(frame.len() as u64);
                    state.charge_to(pid, ns);
                    Ok(SyscallRet::Bytes(frame))
                }
                _ => Err(Errno::Enosys.into()),
            }
        }
        S::Write { fd, bytes } => {
            let target = state
                .process(pid)?
                .fd_target(fd)
                .cloned()
                .ok_or(Errno::Ebadf)?;
            match target {
                FdTarget::File { path, offset } => {
                    let n = state.fs.write_at(&path, offset, &bytes)?;
                    let ns = state.cost.file_cost(n);
                    state.charge_to(pid, ns);
                    if let Some(FdTarget::File { offset, .. }) =
                        state.process_mut(pid)?.fd_table.get_mut(&fd)
                    {
                        *offset += n;
                    }
                    Ok(SyscallRet::Num(n))
                }
                FdTarget::Socket { dest } => {
                    net_send(state, pid, &dest, &bytes);
                    Ok(SyscallRet::Num(bytes.len() as u64))
                }
                FdTarget::Device(DeviceKind::GuiSocket) => {
                    state.display.blitted_bytes += bytes.len() as u64;
                    Ok(SyscallRet::Num(bytes.len() as u64))
                }
                _ => Err(Errno::Enosys.into()),
            }
        }
        S::Lseek { fd, pos } => match state.process_mut(pid)?.fd_table.get_mut(&fd) {
            Some(FdTarget::File { offset, .. }) => {
                *offset = pos;
                Ok(SyscallRet::Num(pos))
            }
            Some(_) => Err(Errno::Enosys.into()),
            None => Err(Errno::Ebadf.into()),
        },
        S::Fstat { fd } => {
            let target = state
                .process(pid)?
                .fd_target(fd)
                .cloned()
                .ok_or(Errno::Ebadf)?;
            match target {
                FdTarget::File { path, .. } => Ok(SyscallRet::Num(state.fs.size(&path)?)),
                _ => Ok(SyscallRet::Num(0)),
            }
        }
        S::Lstat { path } | S::Stat { path } | S::Access { path } => {
            if state.fs.exists(&path) {
                Ok(SyscallRet::Num(state.fs.size(&path)?))
            } else {
                Err(Errno::Enoent.into())
            }
        }
        S::Getdents { path } => {
            let listing = state.fs.list(&path).join("\n");
            Ok(SyscallRet::Bytes(listing.into_bytes()))
        }
        S::Mkdir { path } => {
            state.fs.mkdir(&path);
            Ok(SyscallRet::Ok)
        }
        S::Unlink { path } => {
            state.fs.unlink(&path)?;
            Ok(SyscallRet::Ok)
        }
        S::Rename { from, to } => {
            state.fs.rename(&from, &to)?;
            Ok(SyscallRet::Ok)
        }
        S::Umask { mask } => Ok(SyscallRet::Num(mask as u64)),
        S::Dup { fd } => {
            let target = state
                .process(pid)?
                .fd_target(fd)
                .cloned()
                .ok_or(Errno::Ebadf)?;
            let new = state.process_mut(pid)?.install_fd(target);
            Ok(SyscallRet::NewFd(new))
        }
        S::Fcntl { fd } => {
            state.process(pid)?.fd_target(fd).ok_or(Errno::Ebadf)?;
            Ok(SyscallRet::Ok)
        }

        // ---------------- memory ----------------
        S::Brk { grow } => {
            let addr = state.process_mut(pid)?.aspace.alloc(grow.max(1), Perms::RW);
            Ok(SyscallRet::Mapped(addr))
        }
        S::Mmap { len, perms } => {
            let addr = state.process_mut(pid)?.aspace.alloc(len.max(1), perms);
            Ok(SyscallRet::Mapped(addr))
        }
        S::Munmap { addr, len } => {
            state.process_mut(pid)?.aspace.unmap(addr, len);
            Ok(SyscallRet::Ok)
        }
        S::Mprotect { addr, len, perms } => {
            let p = state.procs.get_mut(pid).expect("checked");
            match p.aspace.protect(&[(addr, len)], perms) {
                Ok(changed) => {
                    if changed > 0 {
                        let ns = state.cost.mprotect_cost(changed);
                        state.charge_to(pid, ns);
                        state.metrics.protected_pages += changed;
                    }
                    Ok(SyscallRet::Num(changed))
                }
                Err(_) => Err(Errno::Einval.into()),
            }
        }

        // ---------------- process ----------------
        S::Fork => {
            // Semantically a no-op in the cooperative simulation; the
            // call exists so fork-bomb payloads hit the filter.
            let ns = state.cost.spawn_ns;
            state.charge_to(pid, ns);
            Ok(SyscallRet::Num(0))
        }
        S::Execve { .. } => Ok(SyscallRet::Ok),
        S::Exit { code } => {
            state.process_mut(pid)?.state = ProcessState::Exited(code);
            Ok(SyscallRet::Ok)
        }
        S::Kill { target_pid } => {
            crash(state, Pid(target_pid), FaultKind::Abort, None);
            Ok(SyscallRet::Ok)
        }
        S::Getpid => Ok(SyscallRet::Num(pid.0 as u64)),
        S::Getuid => Ok(SyscallRet::Num(1000)),
        S::Getcwd => Ok(SyscallRet::Bytes(b"/".to_vec())),
        S::Uname => Ok(SyscallRet::Bytes(b"simos 1.0".to_vec())),
        S::SchedYield => Ok(SyscallRet::Ok),
        S::Nanosleep { ns } => {
            state.charge_to(pid, ns);
            Ok(SyscallRet::Ok)
        }
        S::PrctlNoNewPrivs => {
            let p = state.process_mut(pid)?;
            p.no_new_privs = true;
            if let Some(f) = &mut p.filter {
                f.lock();
            }
            Ok(SyscallRet::Ok)
        }
        S::Seccomp => Ok(SyscallRet::Ok),

        // ---------------- devices ----------------
        S::Ioctl { fd, .. } => match state.process(pid)?.fd_target(fd) {
            Some(FdTarget::Device(_)) => Ok(SyscallRet::Ok),
            Some(_) => Ok(SyscallRet::Ok),
            None => Err(Errno::Ebadf.into()),
        },
        S::Select { .. } | S::Poll { .. } => Ok(SyscallRet::Ok),
        S::Eventfd2 => {
            let fd = state
                .process_mut(pid)?
                .install_fd(FdTarget::Device(DeviceKind::Event));
            Ok(SyscallRet::NewFd(fd))
        }

        // ---------------- sockets ----------------
        S::Socket => {
            let fd = state.process_mut(pid)?.install_fd(FdTarget::Socket {
                dest: String::new(),
            });
            Ok(SyscallRet::NewFd(fd))
        }
        S::Connect { fd, dest } => {
            let is_gui = dest.starts_with("gui");
            match state.process_mut(pid)?.fd_table.get_mut(&fd) {
                Some(FdTarget::Socket { dest: d }) => {
                    *d = dest;
                    if is_gui {
                        state.display.connect();
                    }
                    Ok(SyscallRet::Ok)
                }
                Some(_) => Err(Errno::Enosys.into()),
                None => Err(Errno::Ebadf.into()),
            }
        }
        S::Bind { .. } | S::Listen { .. } => Ok(SyscallRet::Ok),
        S::Accept { fd: _ } => {
            let fd = state.process_mut(pid)?.install_fd(FdTarget::Socket {
                dest: String::new(),
            });
            Ok(SyscallRet::NewFd(fd))
        }
        S::Send { fd, bytes } => {
            let dest = match state.process(pid)?.fd_target(fd) {
                Some(FdTarget::Socket { dest }) => dest.clone(),
                Some(_) => return Err(Errno::Enosys.into()),
                None => return Err(Errno::Ebadf.into()),
            };
            net_send(state, pid, &dest, &bytes);
            Ok(SyscallRet::Num(bytes.len() as u64))
        }
        S::Sendto { fd, dest, bytes } => {
            state.process(pid)?.fd_target(fd).ok_or(Errno::Ebadf)?;
            net_send(state, pid, &dest, &bytes);
            Ok(SyscallRet::Num(bytes.len() as u64))
        }
        S::Recvfrom { fd, len } => {
            state.process(pid)?.fd_target(fd).ok_or(Errno::Ebadf)?;
            Ok(SyscallRet::Bytes(vec![0; len as usize]))
        }

        // ---------------- sync / shm ----------------
        S::Futex { .. } => Ok(SyscallRet::Ok),
        S::ShmOpen { .. } => {
            let fd = state
                .process_mut(pid)?
                .install_fd(FdTarget::Device(DeviceKind::Event));
            Ok(SyscallRet::NewFd(fd))
        }
        S::ShmUnlink { .. } => Ok(SyscallRet::Ok),

        // ---------------- misc ----------------
        S::Getrandom { len } => {
            let bytes: Vec<u8> = (0..len).map(|_| state.entropy.next_byte()).collect();
            Ok(SyscallRet::Bytes(bytes))
        }
        S::Gettimeofday | S::ClockGettime => Ok(SyscallRet::Num(state.timeline_ns(pid))),
    }
}

/// Sends `bytes` to `dest` on the simulated network: charges the copy,
/// counts GUI blits, and records egress for the exfiltration oracle.
fn net_send(state: &mut KernelState, pid: Pid, dest: &str, bytes: &[u8]) {
    let ns = state.cost.copy_cost(bytes.len() as u64);
    state.charge_to(pid, ns);
    if dest.starts_with("gui") {
        state.display.blitted_bytes += bytes.len() as u64;
    }
    state.network.record(pid.0, dest, bytes);
}
