//! The workspace's one foreign-function surface.
//!
//! Every `unsafe` call into the C library lives in this file, behind a
//! safe wrapper: `poll(2)` for the serving readiness loop, `setsockopt`
//! for the chaos suite's RST injection, `mmap`/`munmap` for serving
//! snapshots, `signal` for the CLI's graceful drain, and
//! `clock_gettime` for the distributed trainer's CPU-time accounting.
//! std already links libc, so plain `extern "C"` declarations suffice and
//! the workspace carries no libc dependency. CI fails if an
//! `extern "C" {` block or `asm!(` appears in any other file.

use std::ffi::{c_int, c_void};
use std::fs::File;
use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};

#[cfg(target_os = "linux")]
type NFds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NFds = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NFds, timeout: c_int) -> c_int;
    #[cfg(target_os = "linux")]
    fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: u32,
    ) -> c_int;
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    fn signal(signum: c_int, handler: usize) -> usize;
    #[cfg(target_os = "linux")]
    fn clock_gettime(clock: c_int, ts: *mut [std::ffi::c_long; 2]) -> c_int;
}

// ---------------------------------------------------------------------
// poll(2)
// ---------------------------------------------------------------------

/// One `struct pollfd`: a descriptor, the requested `POLL*` events and
/// the returned ones.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct PollFd {
    pub fd: RawFd,
    pub events: i16,
    pub revents: i16,
}

pub const POLLIN: i16 = 0x001;
pub const POLLOUT: i16 = 0x004;
pub const POLLERR: i16 = 0x008;
pub const POLLHUP: i16 = 0x010;
pub const POLLNVAL: i16 = 0x020;

/// `poll(2)` with EINTR retry; returns the number of ready descriptors.
/// `timeout_ms < 0` blocks indefinitely.
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    loop {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // repr(C) pollfd structs for the duration of the call.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NFds, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
}

// ---------------------------------------------------------------------
// setsockopt(SO_LINGER)
// ---------------------------------------------------------------------

/// Set `SO_LINGER {on, 0}` on `sock`, so closing it sends a reset (RST)
/// instead of an orderly FIN. std's `TcpStream::set_linger` is unstable.
#[cfg(target_os = "linux")]
pub fn set_linger_zero(sock: &impl AsRawFd) {
    #[repr(C)]
    struct Linger {
        l_onoff: c_int,
        l_linger: c_int,
    }
    const SOL_SOCKET: c_int = 1;
    const SO_LINGER: c_int = 13;
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: the fd is live for the borrow of `sock`, and optval/optlen
    // describe a valid repr(C) linger struct for the duration of the call.
    unsafe {
        setsockopt(
            sock.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            (&linger as *const Linger).cast(),
            std::mem::size_of::<Linger>() as u32,
        );
    }
}

// ---------------------------------------------------------------------
// mmap(2) / munmap(2)
// ---------------------------------------------------------------------

/// A read-only private mapping of a file's first `len` bytes, unmapped
/// on drop.
pub struct Mmap {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the mapping is PROT_READ/MAP_PRIVATE and never mutated or
// remapped after construction; sharing the pointer across threads is a
// plain shared read of immutable memory.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Map the first `len` bytes of `file`. `None` when `len` is 0 or the
    /// kernel refuses (e.g. a filesystem without mmap support).
    pub fn map(file: &File, len: usize) -> Option<Mmap> {
        const PROT_READ: c_int = 1;
        const MAP_PRIVATE: c_int = 2;
        if len == 0 {
            return None;
        }
        // SAFETY: requesting a fresh PROT_READ/MAP_PRIVATE mapping of an
        // open fd; the kernel picks the address. Failure is MAP_FAILED,
        // checked below.
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == usize::MAX as *mut c_void || ptr.is_null() {
            return None;
        }
        Some(Mmap {
            ptr: ptr as *const u8,
            len,
        })
    }

    /// The mapped bytes.
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: ptr/len delimit a live PROT_READ mapping owned by self;
        // it is unmapped only in Drop.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        // SAFETY: ptr/len came from a successful mmap of exactly len
        // bytes and are unmapped exactly once, here.
        unsafe {
            munmap(self.ptr as *mut c_void, self.len);
        }
    }
}

// ---------------------------------------------------------------------
// signal(2)
// ---------------------------------------------------------------------

static STOP_REQUESTED: AtomicBool = AtomicBool::new(false);

extern "C" fn request_stop(_signum: c_int) {
    STOP_REQUESTED.store(true, Ordering::SeqCst);
}

/// Route SIGINT and SIGTERM to a flag and return it. The handler only
/// flips the atomic; whatever should happen on a stop request runs on
/// the thread that polls the flag.
pub fn stop_on_signals() -> &'static AtomicBool {
    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;
    // SAFETY: request_stop is async-signal-safe (one atomic store) and
    // has the handler ABI signal(2) expects.
    unsafe {
        let handler = request_stop as extern "C" fn(c_int) as *const () as usize;
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
    &STOP_REQUESTED
}

// ---------------------------------------------------------------------
// clock_gettime(2)
// ---------------------------------------------------------------------

/// On-CPU time of the whole calling process (all threads) in
/// nanoseconds: `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`. The clock
/// folds running threads' unexpired time slices into the result, so
/// millisecond spans measure exactly. `None` off Linux.
pub fn process_cpu_ns() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
        let mut ts = [0; 2]; // timespec { tv_sec, tv_nsec }
                             // SAFETY: `ts` is a valid, writable timespec for the call.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        if rc == 0 {
            return Some(ts[0] as u64 * 1_000_000_000 + ts[1] as u64);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_cpu_clock_advances_with_work() {
        let Some(t0) = process_cpu_ns() else { return };
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_ns().unwrap() > t0, "{x}");
    }
}
