//! Dependency-free SIGTERM/SIGINT latch, shared by `sawl-sim` and the
//! `sawl-serve` daemon: the handler only sets a flag, and the run loop
//! polls it at batch boundaries, so an interrupted run stops at a
//! consistent point instead of vanishing.
//!
//! The workspace vendors no `libc`, so the handler registers through the
//! C `signal` symbol directly — the handler itself only stores into an
//! [`AtomicBool`](std::sync::atomic::AtomicBool), which is async-signal
//! safe. Non-Unix builds compile the latch away: [`install`] is a no-op
//! and [`requested`] stays false.

#[cfg(unix)]
mod imp {
    use std::os::raw::c_int;
    use std::sync::atomic::{AtomicBool, Ordering};

    static STOP: AtomicBool = AtomicBool::new(false);

    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;

    extern "C" fn latch(_signum: c_int) {
        STOP.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: c_int, handler: usize) -> usize;
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, latch as extern "C" fn(c_int) as usize);
            signal(SIGTERM, latch as extern "C" fn(c_int) as usize);
        }
    }

    pub fn requested() -> bool {
        STOP.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}

    pub fn requested() -> bool {
        false
    }
}

/// Route SIGINT and SIGTERM into the latch. Idempotent.
pub fn install() {
    imp::install()
}

/// Whether a shutdown signal has arrived since [`install`].
pub fn requested() -> bool {
    imp::requested()
}
