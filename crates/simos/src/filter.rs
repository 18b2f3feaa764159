//! seccomp-BPF-style syscall filtering.
//!
//! FreePart restricts each agent process to the union of syscalls its
//! APIs need (§4.4.1). The filter model here reproduces the parts of
//! seccomp the paper relies on:
//!
//! * an **allowlist** of syscall numbers — anything else kills the
//!   process (`SECCOMP_RET_KILL`, surfaced as a `SIGSYS` fault);
//! * **fd-argument rules** for syscalls like `ioctl`/`connect`/`select`/
//!   `fcntl` that are only safe on designated descriptors;
//! * a **no-new-privs lock** (`PR_SET_NO_NEW_PRIVS`): once locked, a
//!   compromised process cannot install a more permissive filter.

use crate::commit::{hash_str, mix, FINGERPRINT_SEED};
use crate::syscall::{Fd, Syscall, SyscallNo};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Per-syscall fd restriction: the call is allowed only on these fds —
/// and, when `dest_prefix` is set, only toward matching destinations
/// (the "designated files" check of §4.4.1 for `connect`/`sendto`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FdRule {
    allowed_fds: BTreeSet<Fd>,
    dest_prefixes: BTreeSet<String>,
}

impl FdRule {
    /// A rule permitting exactly the given descriptors.
    pub fn only<I: IntoIterator<Item = Fd>>(fds: I) -> FdRule {
        FdRule {
            allowed_fds: fds.into_iter().collect(),
            dest_prefixes: BTreeSet::new(),
        }
    }

    /// Additionally requires destination strings (for `connect`/`sendto`)
    /// to start with one of the configured prefixes.
    pub fn with_dest_prefix(mut self, prefix: &str) -> FdRule {
        self.dest_prefixes.insert(prefix.to_owned());
        self
    }

    /// Adds one more permitted descriptor.
    pub fn allow_fd(&mut self, fd: Fd) {
        self.allowed_fds.insert(fd);
    }

    /// True when the rule permits `fd`. A rule with no fd set is
    /// destination-only: any descriptor passes.
    pub fn permits(&self, fd: Fd) -> bool {
        self.allowed_fds.is_empty() || self.allowed_fds.contains(&fd)
    }

    /// True when the rule permits destination `dest` (always true when no
    /// prefix is configured).
    pub fn permits_dest(&self, dest: &str) -> bool {
        self.dest_prefixes.is_empty()
            || self
                .dest_prefixes
                .iter()
                .any(|p| dest.starts_with(p.as_str()))
    }
}

/// Verdict of evaluating one syscall against a filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterDecision {
    /// The call proceeds.
    Allow,
    /// The call kills the process (`SECCOMP_RET_KILL` / `SIGSYS`).
    Kill,
}

/// An installed, optionally locked, syscall allowlist with fd rules.
///
/// # Example
///
/// ```
/// use freepart_simos::{SyscallFilter, Syscall, FilterDecision, FdRule, Fd};
/// use freepart_simos::syscall::SyscallNo;
///
/// let mut f = SyscallFilter::allowing([SyscallNo::Read, SyscallNo::Ioctl]);
/// f.set_fd_rule(SyscallNo::Ioctl, FdRule::only([Fd(3)]));
///
/// assert_eq!(f.evaluate(&Syscall::Read { fd: Fd(0), len: 1 }), FilterDecision::Allow);
/// assert_eq!(f.evaluate(&Syscall::Getpid), FilterDecision::Kill);
/// assert_eq!(
///     f.evaluate(&Syscall::Ioctl { fd: Fd(9), request: 0 }),
///     FilterDecision::Kill,
/// );
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SyscallFilter {
    allowed: BTreeSet<SyscallNo>,
    fd_rules: BTreeMap<SyscallNo, FdRule>,
    locked: bool,
}

impl SyscallFilter {
    /// An empty filter (nothing allowed). Mostly useful in tests.
    pub fn deny_all() -> SyscallFilter {
        SyscallFilter::default()
    }

    /// A filter allowing exactly the given syscall numbers.
    pub fn allowing<I: IntoIterator<Item = SyscallNo>>(numbers: I) -> SyscallFilter {
        SyscallFilter {
            allowed: numbers.into_iter().collect(),
            fd_rules: BTreeMap::new(),
            locked: false,
        }
    }

    /// Adds a syscall to the allowlist.
    ///
    /// Mutation of an installed filter goes through the kernel, which
    /// refuses once the no-new-privs lock is set; this method itself is a
    /// plain builder step.
    pub fn allow(&mut self, no: SyscallNo) -> &mut Self {
        self.allowed.insert(no);
        self
    }

    /// Attaches an fd-argument rule to a syscall number. The call is then
    /// permitted only on the rule's descriptors.
    pub fn set_fd_rule(&mut self, no: SyscallNo, rule: FdRule) -> &mut Self {
        self.fd_rules.insert(no, rule);
        self
    }

    /// Marks the filter configuration immutable (`PR_SET_NO_NEW_PRIVS`).
    pub fn lock(&mut self) {
        self.locked = true;
    }

    /// True once [`SyscallFilter::lock`] has been called.
    pub fn is_locked(&self) -> bool {
        self.locked
    }

    /// True when the syscall number is on the allowlist (ignoring fd rules).
    pub fn allows_number(&self, no: SyscallNo) -> bool {
        self.allowed.contains(&no)
    }

    /// Fingerprint of the rule set — allowlist and fd-argument rules, not
    /// the lock bit. The kernel computes it once per install (an
    /// installed filter's rules never change) and caches it for the
    /// state digest.
    pub fn fingerprint(&self) -> u64 {
        let mut h = mix(FINGERPRINT_SEED, self.allowed.len() as u64);
        for no in &self.allowed {
            h = mix(h, *no as u64);
        }
        h = mix(h, self.fd_rules.len() as u64);
        for (no, rule) in &self.fd_rules {
            h = mix(mix(h, *no as u64), rule.allowed_fds.len() as u64);
            for fd in &rule.allowed_fds {
                h = mix(h, u64::from(fd.0));
            }
            h = mix(h, rule.dest_prefixes.len() as u64);
            for prefix in &rule.dest_prefixes {
                h = mix(h, hash_str(prefix));
            }
        }
        h
    }

    /// Number of allowlisted syscalls.
    pub fn len(&self) -> usize {
        self.allowed.len()
    }

    /// True when nothing is allowed.
    pub fn is_empty(&self) -> bool {
        self.allowed.is_empty()
    }

    /// Evaluates a concrete syscall the way the in-kernel BPF program
    /// would: number check first, then the fd-argument rule if one exists.
    pub fn evaluate(&self, call: &Syscall) -> FilterDecision {
        let no = call.number();
        if !self.allowed.contains(&no) {
            return FilterDecision::Kill;
        }
        if let Some(rule) = self.fd_rules.get(&no) {
            let fd_ok = matches!(call.fd_arg(), Some(fd) if rule.permits(fd));
            let dest_ok = match call {
                Syscall::Connect { dest, .. } | Syscall::Sendto { dest, .. } => {
                    rule.permits_dest(dest)
                }
                _ => true,
            };
            if fd_ok && dest_ok {
                FilterDecision::Allow
            } else {
                // A non-designated descriptor or destination is a
                // violation.
                FilterDecision::Kill
            }
        } else {
            FilterDecision::Allow
        }
    }

    /// Union of two filters' allowlists (fd rules merge per syscall).
    /// Used when multiple API profiles share one agent process.
    pub fn merge(&mut self, other: &SyscallFilter) {
        self.allowed.extend(other.allowed.iter().copied());
        for (no, rule) in &other.fd_rules {
            let merged = self.fd_rules.entry(*no).or_default();
            merged.allowed_fds.extend(rule.allowed_fds.iter().copied());
            merged
                .dest_prefixes
                .extend(rule.dest_prefixes.iter().cloned());
        }
    }
}

impl fmt::Display for SyscallFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<_> = self.allowed.iter().map(|n| n.name()).collect();
        write!(
            f,
            "filter[{}]{{{}}}",
            if self.locked { "locked" } else { "open" },
            names.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deny_all_kills_everything() {
        let f = SyscallFilter::deny_all();
        assert_eq!(f.evaluate(&Syscall::Getpid), FilterDecision::Kill);
        assert!(f.is_empty());
    }

    #[test]
    fn allowlist_admits_listed_numbers_only() {
        let f = SyscallFilter::allowing([SyscallNo::Brk, SyscallNo::Read]);
        assert_eq!(f.evaluate(&Syscall::Brk { grow: 1 }), FilterDecision::Allow);
        assert_eq!(
            f.evaluate(&Syscall::Write {
                fd: Fd(1),
                bytes: vec![]
            }),
            FilterDecision::Kill
        );
    }

    #[test]
    fn fd_rule_restricts_designated_descriptors() {
        let mut f = SyscallFilter::allowing([SyscallNo::Connect]);
        f.set_fd_rule(SyscallNo::Connect, FdRule::only([Fd(5)]));
        let ok = Syscall::Connect {
            fd: Fd(5),
            dest: "gui".into(),
        };
        let bad = Syscall::Connect {
            fd: Fd(6),
            dest: "evil".into(),
        };
        assert_eq!(f.evaluate(&ok), FilterDecision::Allow);
        assert_eq!(f.evaluate(&bad), FilterDecision::Kill);
    }

    #[test]
    fn merge_unions_allowlists_and_rules() {
        let mut a = SyscallFilter::allowing([SyscallNo::Read]);
        a.set_fd_rule(SyscallNo::Ioctl, FdRule::only([Fd(1)]));
        a.allow(SyscallNo::Ioctl);
        let mut b = SyscallFilter::allowing([SyscallNo::Write, SyscallNo::Ioctl]);
        b.set_fd_rule(SyscallNo::Ioctl, FdRule::only([Fd(2)]));
        a.merge(&b);
        assert!(a.allows_number(SyscallNo::Write));
        assert_eq!(
            a.evaluate(&Syscall::Ioctl {
                fd: Fd(1),
                request: 0
            }),
            FilterDecision::Allow
        );
        assert_eq!(
            a.evaluate(&Syscall::Ioctl {
                fd: Fd(2),
                request: 0
            }),
            FilterDecision::Allow
        );
        assert_eq!(
            a.evaluate(&Syscall::Ioctl {
                fd: Fd(3),
                request: 0
            }),
            FilterDecision::Kill
        );
    }

    #[test]
    fn lock_is_observable() {
        let mut f = SyscallFilter::deny_all();
        assert!(!f.is_locked());
        f.lock();
        assert!(f.is_locked());
    }

    #[test]
    fn display_mentions_lock_state() {
        let mut f = SyscallFilter::allowing([SyscallNo::Read]);
        assert!(f.to_string().contains("open"));
        f.lock();
        assert!(f.to_string().contains("locked"));
    }
}
