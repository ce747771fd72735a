//! Graceful-interrupt support without a libc dependency.
//!
//! The first SIGINT or SIGTERM flips a process-global atomic flag that
//! the supervisor polls between jobs: workers stop claiming new work,
//! drain (or checkpoint) what is in flight, and the journal/manifest
//! are flushed so the campaign can resume. A second signal bypasses the
//! drain and exits immediately with status 130 (the conventional
//! 128+SIGINT). SIGTERM gets the identical treatment because batch
//! schedulers and container runtimes deliver it, not SIGINT, ahead of a
//! hard kill — a campaign must checkpoint on either.
//!
//! The build environment has no `libc` crate, so the handler is wired
//! through raw `extern "C"` declarations of the POSIX functions we
//! need. Only `signal(2)` with a flag-setting handler is used, which is
//! async-signal-safe.

use std::sync::atomic::{AtomicBool, Ordering};

/// POSIX signal number for SIGINT (Ctrl-C).
pub const SIGINT: i32 = 2;

/// POSIX signal number for SIGTERM (polite kill; what `kill`, cgroup
/// teardown and job schedulers send first).
pub const SIGTERM: i32 = 15;

// The process exit-code contract shared by every campaign-shaped
// command (the `experiments` modes and the `sim-serve` daemon):
// `0` success, then the codes below.

/// Usage error: an unknown or misapplied flag, a bad flag value, an
/// unknown exhibit — rejected before any simulation starts.
pub const EXIT_USAGE: i32 = 1;

/// The campaign completed but at least one job failed or was
/// quarantined.
pub const EXIT_PARTIAL: i32 = 2;

/// Fatal: I/O failure, a `--check-*` gate regression, a chaos contract
/// violation, or a daemon that cannot start.
pub const EXIT_FATAL: i32 = 3;

/// Exit status conventionally reported for death-by-interrupt.
pub const EXIT_INTERRUPTED: i32 = 130;

/// A finished (or stopped) campaign's exit code: interrupted beats
/// partial beats success.
pub fn campaign_exit_code(interrupted: bool, partial: bool) -> i32 {
    if interrupted {
        EXIT_INTERRUPTED
    } else if partial {
        EXIT_PARTIAL
    } else {
        0
    }
}

static INTERRUPTED: AtomicBool = AtomicBool::new(false);
static INSTALLED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    fn _exit(code: i32) -> !;
}

#[cfg(unix)]
extern "C" fn on_interrupt(_signum: i32) {
    // Async-signal-safe: one atomic swap, and _exit on the second hit
    // (from either signal — a SIGINT after a SIGTERM also force-exits).
    if INTERRUPTED.swap(true, Ordering::SeqCst) {
        unsafe { _exit(EXIT_INTERRUPTED) }
    }
}

/// Install the SIGINT + SIGTERM handlers. Idempotent; later calls are
/// no-ops. On non-Unix targets this does nothing and [`interrupted`]
/// only reflects flags set programmatically.
pub fn install_sigint_handler() {
    if INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    #[cfg(unix)]
    unsafe {
        signal(SIGINT, on_interrupt);
        signal(SIGTERM, on_interrupt);
    }
}

/// Has a SIGINT been received since the last [`reset_interrupted`]?
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}

/// Clear the interrupt flag (tests, or a REPL-style driver that wants
/// to survive an interrupt and start a fresh campaign).
pub fn reset_interrupted() {
    INTERRUPTED.store(false, Ordering::SeqCst);
}

/// Set the flag as if a SIGINT had arrived (used by tests and by
/// drivers that want to trigger the same graceful-drain path).
pub fn request_interrupt() {
    INTERRUPTED.store(true, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(unix)]
    extern "C" {
        fn raise(signum: i32) -> i32;
    }

    #[test]
    fn programmatic_interrupt_roundtrip() {
        reset_interrupted();
        assert!(!interrupted());
        request_interrupt();
        assert!(interrupted());
        reset_interrupted();
        assert!(!interrupted());
    }

    // Real-signal tests. They must not run concurrently with other
    // interrupt-sensitive tests; these are the only tests in this crate
    // that raise signals, and the handler is installed first so the
    // process does not die. Rust runs tests in one process, so both
    // raises share one handler installation — serialize via a lock.
    #[cfg(unix)]
    static RAISE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[cfg(unix)]
    #[test]
    fn real_sigint_sets_flag_once_handler_installed() {
        let _g = RAISE_LOCK.lock().unwrap();
        install_sigint_handler();
        reset_interrupted();
        unsafe {
            raise(SIGINT);
        }
        assert!(interrupted());
        reset_interrupted();
    }

    #[cfg(unix)]
    #[test]
    fn real_sigterm_drains_like_sigint() {
        let _g = RAISE_LOCK.lock().unwrap();
        install_sigint_handler();
        reset_interrupted();
        unsafe {
            raise(SIGTERM);
        }
        assert!(interrupted(), "SIGTERM must set the same drain flag");
        reset_interrupted();
    }
}
