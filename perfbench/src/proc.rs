//! Child processes reaped with `wait4`, so each one's peak resident memory
//! comes from its own `rusage` (the standard library's `Child::wait` drops
//! the rusage on the floor).
//!
//! Every [`Proc`] is killed and reaped on drop, so an early return never
//! leaves a process of the benchmark running.

use std::io;
use std::process::Command;
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen longs of
/// which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const WNOHANG: i32 = 1;
const SIGKILL: i32 = 9;
/// SIGTERM: `serve` treats it as an interrupt and shuts its broker down.
pub const SIGTERM: i32 = 15;

/// How a reaped child ended.
#[derive(Clone, Copy, Debug)]
pub struct Exit {
    /// Exit code, if it exited normally.
    pub code: Option<i32>,
    /// Peak resident set size in kilobytes.
    pub max_rss_kb: u64,
}

impl Exit {
    /// Whether the child exited normally with code 0.
    pub fn success(&self) -> bool {
        self.code == Some(0)
    }
}

/// A spawned child that the benchmark reaps itself.
pub struct Proc {
    pid: i32,
    /// When the child was spawned.
    pub started: Instant,
    exit: Option<Exit>,
}

impl Proc {
    /// Spawns `cmd`; the returned handle owns the process.
    pub fn spawn(cmd: &mut Command) -> io::Result<Proc> {
        let started = Instant::now();
        let child = cmd.spawn()?;
        let pid = i32::try_from(child.id()).map_err(io::Error::other)?;
        // `Child` neither waits nor kills on drop; reaping is ours from here.
        drop(child);
        Ok(Proc {
            pid,
            started,
            exit: None,
        })
    }

    /// Reaps the child if it has exited, without blocking.
    pub fn try_reap(&mut self) -> io::Result<Option<Exit>> {
        if let Some(exit) = self.exit {
            return Ok(Some(exit));
        }
        let mut status = 0i32;
        let mut usage = Rusage::default();
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the 64-bit Linux ABI expects (`int` and `struct rusage`); `pid` is
        // our own unreaped child, so no other process is affected.
        let reaped = unsafe { wait4(self.pid, &mut status, WNOHANG, &mut usage) };
        if reaped < 0 {
            return Err(io::Error::last_os_error());
        }
        if reaped == 0 {
            return Ok(None);
        }
        let exited = status & 0x7f == 0;
        let exit = Exit {
            code: exited.then_some((status >> 8) & 0xff),
            max_rss_kb: u64::try_from(usage.maxrss).unwrap_or(0),
        };
        self.exit = Some(exit);
        Ok(Some(exit))
    }

    /// Polls until the child exits or `timeout` passes (`None` then).
    pub fn wait_timeout(&mut self, timeout: Duration) -> io::Result<Option<Exit>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(exit) = self.try_reap()? {
                return Ok(Some(exit));
            }
            if Instant::now() >= deadline {
                return Ok(None);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Sends `sig` unless the child was already reaped.
    pub fn signal(&self, sig: i32) {
        if self.exit.is_none() {
            // SAFETY: plain syscall on our own unreaped child's pid, which
            // cannot have been recycled while it is a zombie.
            unsafe {
                kill(self.pid, sig);
            }
        }
    }

    /// Sends `sig`, waits up to `grace`, then kills and reaps.
    pub fn stop(&mut self, sig: i32, grace: Duration) -> io::Result<Exit> {
        self.signal(sig);
        if let Some(exit) = self.wait_timeout(grace)? {
            return Ok(exit);
        }
        self.signal(SIGKILL);
        loop {
            if let Some(exit) = self.wait_timeout(Duration::from_secs(1))? {
                return Ok(exit);
            }
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if self.exit.is_none() {
            let _ = self.stop(SIGKILL, Duration::from_secs(5));
        }
    }
}
