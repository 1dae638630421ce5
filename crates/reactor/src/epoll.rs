//! Safe epoll wrapper: interest registration by token, level-triggered
//! readiness harvesting.

use crate::sys;
use std::io;
use std::ops::BitOr;
use std::os::fd::{AsRawFd, OwnedFd};

/// Which readiness directions a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u32);

impl Interest {
    /// Readable (plus peer-half-close notification).
    pub const READ: Interest = Interest(sys::EPOLLIN | sys::EPOLLRDHUP);
    /// Writable.
    pub const WRITE: Interest = Interest(sys::EPOLLOUT);
    /// No direction — error/hangup only (always reported by epoll).
    pub const NONE: Interest = Interest(0);

    /// [`Interest::READ`] when `read`, plus [`Interest::WRITE`] when `write`.
    pub fn of(read: bool, write: bool) -> Interest {
        let pick = |on: bool, i: Interest| if on { i.0 } else { 0 };
        Interest(pick(read, Interest::READ) | pick(write, Interest::WRITE))
    }

    /// True if this interest includes `other`'s bits.
    pub fn contains(self, other: Interest) -> bool {
        self.0 & other.0 == other.0
    }
}

impl BitOr for Interest {
    type Output = Interest;
    fn bitor(self, rhs: Interest) -> Interest {
        Interest(self.0 | rhs.0)
    }
}

/// One harvested readiness event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Readable (or peer half-closed with data possibly still buffered —
    /// level-triggered epoll keeps reporting until drained).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Peer closed its end (`EPOLLRDHUP`/`EPOLLHUP`).
    pub closed: bool,
    /// Error condition pending on the fd (`EPOLLERR`).
    pub error: bool,
}

/// A level-triggered epoll instance.
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// A fresh epoll instance.
    pub fn new() -> io::Result<Epoll> {
        Ok(Epoll { fd: sys::epoll_create()? })
    }

    /// Registers `fd` with `token` and `interest`.
    pub fn add(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys::epoll_control(&self.fd, sys::EPOLL_CTL_ADD, fd.as_raw_fd(), interest.0, token)
    }

    /// Changes the interest of a registered fd.
    pub fn modify(&self, fd: &impl AsRawFd, token: u64, interest: Interest) -> io::Result<()> {
        sys::epoll_control(&self.fd, sys::EPOLL_CTL_MOD, fd.as_raw_fd(), interest.0, token)
    }

    /// Deregisters a fd. Idempotent in practice: closing the fd also
    /// removes it, so teardown paths ignore this call's error.
    pub fn remove(&self, fd: &impl AsRawFd) -> io::Result<()> {
        sys::epoll_control(&self.fd, sys::EPOLL_CTL_DEL, fd.as_raw_fd(), 0, 0)
    }

    /// Waits up to `timeout_ms` (-1 = forever) and appends harvested
    /// events to `out` (cleared first). Interrupted waits (`EINTR`) report
    /// zero events rather than an error.
    pub fn wait(&self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<usize> {
        out.clear();
        let mut raw = [sys::EpollEvent { events: 0, data: 0 }; 256];
        let n = match sys::epoll_pwait(&self.fd, &mut raw, timeout_ms) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => 0,
            Err(e) => return Err(e),
        };
        for ev in raw.iter().take(n) {
            // Packed struct: copy fields out before use.
            let bits = ev.events;
            let token = ev.data;
            out.push(Event {
                token,
                readable: bits & sys::EPOLLIN != 0,
                writable: bits & sys::EPOLLOUT != 0,
                closed: bits & (sys::EPOLLRDHUP | sys::EPOLLHUP) != 0,
                error: bits & sys::EPOLLERR != 0,
            });
        }
        Ok(n)
    }
}
