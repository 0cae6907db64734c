//! Message-quiescence detection for real transports.
//!
//! The whole cluster — node worker threads, TCP reader threads and the
//! controlling harness — lives in one process, so quiescence reduces to
//! one shared counter: every unit of pending work (a queued node command, a
//! frame in flight on a channel or socket, an armed timer) holds exactly one
//! token, acquired *before* the work becomes visible to any consumer and
//! released only after the consumer finished processing it (including
//! enqueueing any follow-on sends, which took their own tokens first).
//! Under that discipline the counter reads zero **iff** no command is
//! queued, none is being processed and no timer is pending — and zero is
//! stable, so a single load suffices.
//!
//! Waiting costs no polling: the release that takes the counter from one to
//! zero wakes every [`InFlight::wait_quiet`] caller through a condition
//! variable.  `up` and every other `down` stay one atomic operation.

use rspan_telemetry::{Gauge, TelemetryHandle};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Shared in-flight work counter (see module docs for the token protocol).
/// Mirrors every movement onto the `rspan_net_queue_depth` telemetry gauge,
/// which must therefore fold to zero at quiescence.
pub struct InFlight {
    count: AtomicI64,
    /// Held by a waiter between its check of `count` and its sleep, and by
    /// the last release around its wake-up, so the wake-up cannot fall
    /// between the two.
    quiet_lock: Mutex<()>,
    quiet: Condvar,
    tel: TelemetryHandle,
}

impl InFlight {
    /// A fresh counter at zero.
    pub fn new(tel: TelemetryHandle) -> Self {
        InFlight {
            count: AtomicI64::new(0),
            quiet_lock: Mutex::new(()),
            quiet: Condvar::new(),
            tel,
        }
    }

    /// Acquires one token — call *before* making the work visible.
    #[inline]
    pub fn up(&self) {
        self.count.fetch_add(1, Ordering::SeqCst);
        self.tel.gauge_add(Gauge::NetQueueDepth, 1);
    }

    /// Releases one token — call after the work is fully processed.  The
    /// last release wakes the waiters.
    #[inline]
    pub fn down(&self) {
        let prev = self.count.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev > 0, "in-flight counter went negative");
        self.tel.gauge_add(Gauge::NetQueueDepth, -1);
        if prev == 1 {
            let _guard = self.lock();
            self.quiet.notify_all();
        }
    }

    /// Current token count (diagnostic).
    pub fn pending(&self) -> i64 {
        self.count.load(Ordering::SeqCst)
    }

    /// Blocks until the counter reads zero, woken by the last release.
    /// Returns `false` if `timeout` elapses first.
    pub fn wait_quiet(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut guard = self.lock();
        loop {
            if self.count.load(Ordering::SeqCst) == 0 {
                return true;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            guard = self
                .quiet
                .wait_timeout(guard, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// The lock guards no data, so a poisoned one is still good.
    fn lock(&self) -> MutexGuard<'_, ()> {
        self.quiet_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn tokens_balance_across_threads() {
        let inflight = Arc::new(InFlight::new(TelemetryHandle::off()));
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let inflight = Arc::clone(&inflight);
                // Acquire before the thread (the work) becomes visible.
                for _ in 0..1000 {
                    inflight.up();
                }
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        inflight.down();
                    }
                })
            })
            .collect();
        assert!(inflight.wait_quiet(Duration::from_secs(5)));
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(inflight.pending(), 0);
    }

    #[test]
    fn wait_quiet_times_out_while_tokens_held() {
        let inflight = InFlight::new(TelemetryHandle::off());
        inflight.up();
        assert!(!inflight.wait_quiet(Duration::from_millis(5)));
        inflight.down();
        assert!(inflight.wait_quiet(Duration::from_millis(5)));
    }

    #[test]
    fn the_last_release_wakes_the_waiter() {
        // Each cycle hands one token to a releaser thread and waits for it
        // at once, so the release races the waiter's check.  A lost wake-up
        // sleeps out the 30 s timeout and still reads zero at the end, so
        // each wait is timed.
        let inflight = Arc::new(InFlight::new(TelemetryHandle::off()));
        let (hand_over, tokens) = std::sync::mpsc::channel::<()>();
        let releaser = {
            let inflight = Arc::clone(&inflight);
            std::thread::spawn(move || {
                for () in tokens {
                    inflight.down();
                }
            })
        };
        for cycle in 0..10_000 {
            inflight.up();
            hand_over.send(()).unwrap();
            let start = Instant::now();
            assert!(inflight.wait_quiet(Duration::from_secs(30)));
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "cycle {cycle}: the wake-up was lost"
            );
        }
        drop(hand_over);
        releaser.join().unwrap();
    }

    #[test]
    fn gauge_mirrors_the_counter() {
        let tel = TelemetryHandle::enabled();
        let inflight = InFlight::new(tel.clone());
        inflight.up();
        inflight.up();
        assert_eq!(
            tel.snapshot().unwrap().gauge(Gauge::NetQueueDepth),
            2,
            "gauge tracks live tokens"
        );
        inflight.down();
        inflight.down();
        assert_eq!(tel.snapshot().unwrap().gauge(Gauge::NetQueueDepth), 0);
    }
}
