//! Pins the zero-cost claim of the off [`ObsHandle`]: instrumentation sites
//! on the recorder-off path perform **zero** heap allocations, enforced with
//! a counting global allocator (the same technique as the graph crate's
//! pooled-kernel pin).

use rspan_obs::{DropCause, FrameKind, FrameMeta, ObsEvent, ObsHandle, WaveId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    THREAD_ALLOCATIONS.with(|c| c.get())
}

#[test]
fn off_handle_never_allocates() {
    let obs = ObsHandle::default();
    let clone = obs.clone();
    let wave = WaveId {
        origin: 1,
        epoch: 2,
    };
    let meta = FrameMeta {
        kind: FrameKind::LinkState,
        wave: Some(wave),
        ttl: 3,
    };

    let before = allocations();
    for t in 0..10_000u64 {
        assert!(!obs.on());
        obs.set_now(t);
        obs.emit(ObsEvent::WaveStart { wave });
        obs.emit_at(
            t,
            ObsEvent::Deliver {
                from: 0,
                to: 1,
                bytes: 28,
                latency: 1,
                meta,
            },
        );
        clone.emit(ObsEvent::Drop {
            from: 0,
            to: 2,
            bytes: 28,
            cause: DropCause::Loss,
            meta,
        });
        let _ = obs.clone();
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "off obs handle allocated {} times",
        after - before
    );
}
