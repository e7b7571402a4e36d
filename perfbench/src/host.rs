//! Host-side readings: how long the measuring thread waited for a CPU,
//! and the process's peak resident memory.

use std::io;

/// Nanoseconds the calling thread has spent runnable but not running
/// (the second field of `/proc/thread-self/schedstat`). Its granularity is
/// the scheduler tick, so callers read it once per pass, not per sample.
///
/// # Errors
///
/// The file is missing (non-Linux host) or malformed.
pub fn runqueue_wait_ns() -> io::Result<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")?;
    text.split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed schedstat"))
}

/// Accumulates run-queue wait over the passes of a timed phase.
#[derive(Debug, Default)]
pub struct WaitMeter {
    total_ns: u64,
    last: Option<u64>,
}

impl WaitMeter {
    /// Starts metering on the calling thread.
    ///
    /// # Errors
    ///
    /// As [`runqueue_wait_ns`].
    pub fn start() -> io::Result<Self> {
        Ok(WaitMeter {
            total_ns: 0,
            last: Some(runqueue_wait_ns()?),
        })
    }

    /// Closes one pass; returns the wait it saw, in milliseconds.
    ///
    /// # Errors
    ///
    /// As [`runqueue_wait_ns`].
    pub fn pass(&mut self) -> io::Result<f64> {
        let now = runqueue_wait_ns()?;
        let delta = now.saturating_sub(self.last.unwrap_or(now));
        self.last = Some(now);
        self.total_ns += delta;
        Ok(delta as f64 / 1e6)
    }

    /// Starts the next pass now, leaving out the wait since the last one.
    ///
    /// # Errors
    ///
    /// As [`runqueue_wait_ns`].
    pub fn skip(&mut self) -> io::Result<()> {
        self.last = Some(runqueue_wait_ns()?);
        Ok(())
    }

    /// Total wait over every closed pass, in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
///
/// # Errors
///
/// `/proc/self/status` is missing or has no `VmHWM` line.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc/self/status"))
}
