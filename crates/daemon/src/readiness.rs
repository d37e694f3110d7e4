//! Blocking until a socket is ready: the one thing the server loop needs
//! that `std` cannot say — its sockets block one at a time or not at all.
//! That is `poll(2)`, declared here by hand (the workspace has no `libc`)
//! and called from one place: the repository's only `unsafe`.

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

/// One watched socket: `struct pollfd`, field for field.
#[repr(C)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Watches `socket` for data to read and/or room to write.
    #[cfg(unix)]
    pub fn new(socket: &impl std::os::fd::AsRawFd, read: bool, write: bool) -> Self {
        let events = if read { POLLIN } else { 0 } | if write { POLLOUT } else { 0 };
        let fd = socket.as_raw_fd();
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// What it is watched for happened, or it failed (reported unasked).
    pub fn ready(&self) -> bool {
        self.revents != 0
    }
}

#[cfg(unix)]
extern "C" {
    /// `int poll(struct pollfd *fds, nfds_t nfds, int timeout)`; `nfds_t`
    /// is `unsigned long` on Linux, `unsigned int` on the other unixes.
    #[cfg(any(target_os = "linux", target_os = "android"))]
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: i32) -> i32;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_uint, timeout: i32) -> i32;
}

/// Blocks, with no timeout, until at least one of `fds` is ready, and
/// records in each what happened to it. A signal restarts the wait.
#[cfg(unix)]
pub fn wait(fds: &mut [PollFd]) -> std::io::Result<()> {
    loop {
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // `struct pollfd`s, pointer and length describe exactly it, and
        // `poll` writes only their `revents`, only during the call.
        if unsafe { poll(fds.as_mut_ptr(), fds.len() as _, -1) } >= 0 {
            return Ok(());
        }
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

#[cfg(not(unix))]
impl PollFd {
    pub fn new<S>(_socket: &S, read: bool, write: bool) -> Self {
        let events = if read { POLLIN } else { 0 } | if write { POLLOUT } else { 0 };
        PollFd {
            fd: 0,
            events,
            revents: 0,
        }
    }
}

/// Without `poll(2)`: sleep 1 ms, then every watched socket gets a try.
#[cfg(not(unix))]
pub fn wait(fds: &mut [PollFd]) -> std::io::Result<()> {
    std::thread::sleep(std::time::Duration::from_millis(1));
    for fd in fds {
        fd.revents = fd.events;
    }
    Ok(())
}
