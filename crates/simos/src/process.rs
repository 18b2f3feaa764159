//! Simulated processes.
//!
//! A [`SimProcess`] owns an address space, a file-descriptor table, and an
//! optional syscall filter — exactly the per-process state FreePart's
//! isolation story manipulates. Processes do not run on their own; the
//! harness drives them by executing code "in their context" through the
//! kernel, which attributes every memory access and syscall to the
//! current pid.

use crate::commit::hash_str;
use crate::device::DeviceKind;
use crate::error::Fault;
use crate::filter::SyscallFilter;
use crate::mem::AddressSpace;
use crate::syscall::Fd;
use std::collections::BTreeMap;
use std::fmt;

/// Process identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// Lifecycle state of a process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcessState {
    /// Alive and schedulable.
    Running,
    /// Killed by a fault (segfault, SIGSYS, abort).
    Crashed(Fault),
    /// Exited voluntarily with a status code.
    Exited(i32),
}

impl ProcessState {
    /// True for [`ProcessState::Running`].
    pub fn is_running(&self) -> bool {
        matches!(self, ProcessState::Running)
    }
}

/// What a file descriptor refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FdTarget {
    /// An open file with a cursor.
    File {
        /// Path in the simulated fs.
        path: String,
        /// Read/write cursor.
        offset: u64,
    },
    /// A device endpoint.
    Device(DeviceKind),
    /// A connected socket.
    Socket {
        /// Peer destination (empty until `connect`).
        dest: String,
    },
}

/// A simulated process.
#[derive(Debug)]
pub struct SimProcess {
    /// Kernel-assigned identifier.
    pub pid: Pid,
    /// Human-readable role name ("host", "agent:loading", ...).
    pub name: String,
    /// The process's private memory.
    pub aspace: AddressSpace,
    /// Lifecycle state.
    pub state: ProcessState,
    /// Installed seccomp-style filter, if any.
    pub filter: Option<SyscallFilter>,
    /// Set by `prctl(PR_SET_NO_NEW_PRIVS)`: filter becomes immutable.
    pub no_new_privs: bool,
    pub(crate) fd_table: BTreeMap<Fd, FdTarget>,
    pub(crate) next_fd: u32,
    /// Virtual ns of compute attributed to this process.
    pub cpu_ns: u64,
    /// Digest inputs cached so refreshing this process's state-digest
    /// entry stays O(1): the name's hash (the name never changes), the
    /// installed filter's rule fingerprint (refreshed by the kernel core
    /// on every install — the rules are immutable once installed), and
    /// the fd table's fingerprint (refreshed after every syscall).
    pub(crate) name_fp: u64,
    pub(crate) filter_fp: u64,
    pub(crate) fd_fp: u64,
    /// This process's current term in the kernel state digest's
    /// multiset hash (0 until the kernel core first admits it).
    pub(crate) digest_term: u64,
}

impl SimProcess {
    /// A fresh running process with stdin/stdout/stderr reserved.
    pub fn new(pid: Pid, name: &str) -> SimProcess {
        SimProcess {
            pid,
            name: name.to_owned(),
            aspace: AddressSpace::new(),
            state: ProcessState::Running,
            filter: None,
            no_new_privs: false,
            fd_table: BTreeMap::new(),
            next_fd: 3, // 0..2 reserved, like Unix
            cpu_ns: 0,
            name_fp: hash_str(name),
            filter_fp: 0,
            fd_fp: 0,
            digest_term: 0,
        }
    }

    /// Allocates the next free descriptor pointing at `target`.
    pub(crate) fn install_fd(&mut self, target: FdTarget) -> Fd {
        let fd = Fd(self.next_fd);
        self.next_fd += 1;
        self.fd_table.insert(fd, target);
        fd
    }

    /// Looks up a descriptor.
    pub fn fd_target(&self, fd: Fd) -> Option<&FdTarget> {
        self.fd_table.get(&fd)
    }

    /// Descriptors currently open.
    pub fn open_fds(&self) -> impl Iterator<Item = Fd> + '_ {
        self.fd_table.keys().copied()
    }

    /// Descriptors pointing at a given device kind — used when building
    /// fd-argument filter rules for designated devices.
    pub fn fds_of_device(&self, kind: DeviceKind) -> Vec<Fd> {
        self.fd_table
            .iter()
            .filter_map(|(fd, t)| match t {
                FdTarget::Device(k) if *k == kind => Some(*fd),
                _ => None,
            })
            .collect()
    }

    /// True while the process can execute.
    pub fn is_running(&self) -> bool {
        self.state.is_running()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FaultKind;

    #[test]
    fn fds_start_after_stdio() {
        let mut p = SimProcess::new(Pid(1), "t");
        let fd = p.install_fd(FdTarget::Device(DeviceKind::Camera));
        assert_eq!(fd, Fd(3));
        let fd2 = p.install_fd(FdTarget::Socket {
            dest: String::new(),
        });
        assert_eq!(fd2, Fd(4));
    }

    #[test]
    fn fds_of_device_filters_by_kind() {
        let mut p = SimProcess::new(Pid(1), "t");
        let cam = p.install_fd(FdTarget::Device(DeviceKind::Camera));
        p.install_fd(FdTarget::Device(DeviceKind::GuiSocket));
        assert_eq!(p.fds_of_device(DeviceKind::Camera), vec![cam]);
    }

    #[test]
    fn state_predicates() {
        let mut p = SimProcess::new(Pid(9), "x");
        assert!(p.is_running());
        p.state = ProcessState::Crashed(Fault {
            pid: Pid(9),
            kind: FaultKind::Abort,
            addr: None,
        });
        assert!(!p.is_running());
        p.state = ProcessState::Exited(0);
        assert!(!p.is_running());
    }
}
