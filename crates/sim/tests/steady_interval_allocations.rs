//! A steady interval allocates nothing. With the hook, the fault layer,
//! the DTM watchdog and the trace out of the way, a pinned 4×4 job run
//! for 800 intervals allocates exactly as often as the same run stopped
//! at 400: set-up, the first intervals (which size the kept buffers) and
//! the final report are common to both.
//!
//! A counting global allocator tallies the allocations of the thread
//! that switched counting on, so nothing the test harness does on other
//! threads can enter the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use hp_manycore::{ArchConfig, Machine};
use hp_sim::schedulers::PinnedScheduler;
use hp_sim::{RunOptions, SimConfig, SimError, Simulation};
use hp_thermal::ThermalConfig;
use hp_workload::{Benchmark, Job, JobId};

/// The system allocator, counting every allocation and reallocation
/// made while the calling thread has counting switched on.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread's allocations are counted. Const-initialised
    /// and without a destructor, so reading it never allocates.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// Counting touches only an atomic and a const thread-local, so it never
// allocates or re-enters the allocator.
// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's contract for `alloc` is `System`'s.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded under the caller's contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's contract for `alloc_zeroed` is `System`'s.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded under the caller's contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: the caller's contract for `realloc` is `System`'s; `ptr`
    // came from `System` through this allocator.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded under the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: the caller's contract for `dealloc` is `System`'s; `ptr`
    // came from `System` through this allocator.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded under the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by a run of one pinned two-thread job on the 4×4
/// chip, stopped by the interval budget `max_intervals`.
fn allocations_of(max_intervals: u64) -> u64 {
    let machine = Machine::new(ArchConfig {
        grid_width: 4,
        grid_height: 4,
        ..ArchConfig::default()
    })
    .expect("valid machine");
    let config = SimConfig {
        // Longer than the run: only step 0 hooks.
        sched_period: 10.0,
        dtm_enabled: false,
        record_trace: false,
        ..SimConfig::default()
    };
    assert!(config.faults.is_inert());
    let mut sim = Simulation::new(machine, ThermalConfig::default(), config).expect("valid sim");
    let jobs = vec![Job {
        id: JobId(0),
        benchmark: Benchmark::Canneal,
        spec: Benchmark::Canneal.spec(2),
        arrival: 0.0,
    }];
    let opts = RunOptions {
        max_intervals: Some(max_intervals),
        ..RunOptions::default()
    };
    let mut pinned = PinnedScheduler::new();
    COUNTED.with(|c| c.set(true));
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let outcome = sim.run_with_options(jobs, &mut pinned, &opts);
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    COUNTED.with(|c| c.set(false));
    match outcome {
        Err(SimError::Aborted { cause, partial, .. }) => {
            assert!(
                matches!(*cause, SimError::IntervalBudgetExhausted { budget } if budget == max_intervals),
                "{cause}"
            );
            assert_eq!(
                partial.observability.counter("engine.intervals"),
                Some(max_intervals)
            );
        }
        other => panic!("the job must outlast {max_intervals} intervals: {other:?}"),
    }
    made
}

#[test]
fn a_steady_interval_allocates_nothing() {
    let short = allocations_of(400);
    let long = allocations_of(800);
    assert!(short > 0, "the counter saw the run");
    assert_eq!(long, short, "400 more steady intervals allocated");
}
