//! Process signals: SIGINT/SIGTERM for graceful shutdown, and the death
//! signal that ties a supervised worker's life to its supervisor's.
//!
//! The only unsafe code in the daemon lives here. The SIGINT/SIGTERM
//! handler flips an atomic flag and does nothing else (it is
//! async-signal-safe by construction); the front door's shutdown watcher
//! turns the flag into the drain-and-exit sequence. `die_with_parent`
//! installs a hook that runs in a forked worker before `exec`, and
//! `stop_accepting` wakes a blocked `accept`.
#![allow(unsafe_code)]

use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN_SIGNAL: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" fn record_signal(_signum: i32) {
    SHUTDOWN_SIGNAL.store(true, Ordering::SeqCst);
}

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

/// Installs the SIGINT/SIGTERM handler. Idempotent; call once before
/// entering the accept loop.
pub fn install() {
    let handler = record_signal as extern "C" fn(i32) as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

/// Whether a termination signal has been received since [`install`].
pub fn received() -> bool {
    SHUTDOWN_SIGNAL.load(Ordering::SeqCst)
}

/// Makes the process `command` spawns receive SIGTERM when the thread
/// that spawns it exits, so a supervised worker drains and exits with its
/// supervisor even when the supervisor is SIGKILLed. Linux only
/// (`PR_SET_PDEATHSIG`); a no-op elsewhere.
///
/// The signal follows the spawning *thread*, not the process: a child
/// spawned from a thread that exits early is told to stop at that moment.
#[cfg(target_os = "linux")]
pub(crate) fn die_with_parent(command: &mut Command) {
    use std::io;
    use std::os::unix::process::CommandExt;

    const PR_SET_PDEATHSIG: i32 = 1;
    const ESRCH: i32 = 3;
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
        fn getppid() -> i32;
    }

    let parent = i32::try_from(std::process::id()).expect("a pid fits in pid_t");
    let hook = move || {
        // SAFETY: `PR_SET_PDEATHSIG` takes one integer argument, the
        // signal, and changes only the calling process's death signal.
        if unsafe { prctl(PR_SET_PDEATHSIG, SIGTERM as std::ffi::c_ulong) } != 0 {
            return Err(io::Error::last_os_error());
        }
        // The parent may have died between fork and `prctl`; then no
        // death signal will ever come, so the child must not start.
        // SAFETY: `getppid` has no preconditions and cannot fail.
        if unsafe { getppid() } != parent {
            return Err(io::Error::from_raw_os_error(ESRCH));
        }
        Ok(())
    };
    // SAFETY: the hook runs in the forked child before `exec`, where only
    // async-signal-safe calls are allowed. It makes two system calls and
    // builds an `io::Error` from an OS error code, which does not
    // allocate; it takes no lock and touches no shared state.
    unsafe {
        command.pre_exec(hook);
    }
}

/// Without `PR_SET_PDEATHSIG` a worker cannot learn that its supervisor
/// died; it keeps serving until stopped.
#[cfg(not(target_os = "linux"))]
pub(crate) fn die_with_parent(_command: &mut Command) {}

/// Makes every `accept` blocked on `listener` return with an error: on
/// Linux, shutting a listening socket down wakes its accepts, whatever
/// address it was bound to.
#[cfg(target_os = "linux")]
pub(crate) fn stop_accepting(listener: &impl std::os::fd::AsRawFd) -> std::io::Result<()> {
    const SHUT_RD: i32 = 0;
    extern "C" {
        fn shutdown(fd: i32, how: i32) -> i32;
    }
    // SAFETY: `shutdown` only changes the state of the socket, which the
    // borrowed listener keeps open for the whole call.
    if unsafe { shutdown(listener.as_raw_fd(), SHUT_RD) } == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}
