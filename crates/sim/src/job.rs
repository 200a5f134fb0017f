use std::collections::VecDeque;

use hp_floorplan::CoreId;
use hp_manycore::WorkPoint;
use hp_workload::{Job, JobId};

/// Identifier of one thread of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId {
    /// The owning job.
    pub job: JobId,
    /// Thread index within the job (0 = master).
    pub index: usize,
}

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.t{}", self.job, self.index)
    }
}

/// The window of every thread's average power history, s: paper
/// Algorithm 1 reads "the power history of a thread from the last 10 ms".
pub(crate) const POWER_HISTORY_WINDOW_SECONDS: f64 = 10e-3;

/// Windowed average power history (the "last 10 ms" of paper Algorithm 1).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct PowerHistory {
    samples: VecDeque<(f64, f64)>, // (duration, watts)
    window: f64,
    total_time: f64,
    total_energy: f64,
}

impl PowerHistory {
    pub(crate) fn new(window: f64) -> Self {
        PowerHistory {
            samples: VecDeque::new(),
            window,
            total_time: 0.0,
            total_energy: 0.0,
        }
    }

    pub(crate) fn push(&mut self, dt: f64, watts: f64) {
        self.samples.push_back((dt, watts));
        self.total_time += dt;
        self.total_energy += dt * watts;
        while self.total_time > self.window + 1e-12 {
            let Some(&(d, w)) = self.samples.front() else {
                break;
            };
            let excess = self.total_time - self.window;
            if d <= excess + 1e-15 {
                self.samples.pop_front();
                self.total_time -= d;
                self.total_energy -= d * w;
            } else {
                // Trim the oldest sample partially (the loop guard
                // guarantees the deque is nonempty here).
                if let Some(front) = self.samples.front_mut() {
                    front.0 = d - excess;
                }
                self.total_time -= excess;
                self.total_energy -= excess * w;
            }
        }
    }

    /// Average power over the window (0 if no samples yet).
    pub(crate) fn average(&self) -> f64 {
        if self.total_time <= 0.0 {
            return 0.0;
        }
        self.total_energy / self.total_time
    }
}

// Checkpoints carry the window verbatim, running totals included (not
// recomputed), so a resumed run reproduces the averages bit-for-bit.
crate::codec!(PowerHistory {
    window,
    total_time,
    total_energy,
    samples,
});

crate::codec! {
    /// One thread's runtime, which a checkpoint carries as it is. The
    /// thread's id is its job's id and its index in the job's threads.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) struct ThreadRuntime {
        pub core: CoreId,
        /// `Some(remaining)` instructions of the current phase while
        /// running, `None` once the thread waits at the phase's barrier.
        pub running: Option<u64>,
        /// Absolute time until which the thread is stalled by a migration flush.
        pub stall_until: f64,
        /// Absolute time until which post-migration cache warmup applies.
        pub warmup_until: f64,
        pub history: PowerHistory,
        /// CPI observed in the last interval (∞ before the first).
        pub last_cpi: f64,
        pub migrations: u64,
        pub instructions_retired: u64,
        /// Energy drawn by the cores this thread occupied, J.
        pub energy: f64,
    }
}

#[derive(Debug, Clone)]
pub(crate) struct JobRuntime {
    pub job: Job,
    pub phase: usize,
    pub threads: Vec<ThreadRuntime>,
    pub completed: Option<f64>,
}

impl JobRuntime {
    /// Starts a job on the given cores.
    pub(crate) fn start(job: Job, cores: &[CoreId]) -> Self {
        let threads = cores
            .iter()
            .enumerate()
            .map(|(i, &core)| ThreadRuntime {
                core,
                running: running_with(job.spec.phases()[0].thread(i).instructions),
                stall_until: 0.0,
                warmup_until: 0.0,
                history: PowerHistory::new(POWER_HISTORY_WINDOW_SECONDS),
                last_cpi: f64::INFINITY,
                migrations: 0,
                instructions_retired: 0,
                energy: 0.0,
            })
            .collect();
        JobRuntime {
            job,
            phase: 0,
            threads,
            completed: None,
        }
    }

    pub(crate) fn is_complete(&self) -> bool {
        self.completed.is_some()
    }

    /// The current-phase [`WorkPoint`] of thread `index` (idle while
    /// waiting at a barrier or after completion).
    pub(crate) fn work_point(&self, index: usize) -> WorkPoint {
        if self.is_complete() {
            return WorkPoint::idle();
        }
        match self.threads[index].running {
            Some(_) => self.job.spec.phases()[self.phase].thread(index).work,
            None => WorkPoint::idle(),
        }
    }

    /// True when every thread has reached the barrier of the current phase.
    pub(crate) fn phase_done(&self) -> bool {
        self.threads.iter().all(|t| t.running.is_none())
    }

    /// Advances to the next phase; returns `false` if the job is finished.
    pub(crate) fn advance_phase(&mut self) -> bool {
        self.phase += 1;
        if self.phase >= self.job.spec.phases().len() {
            return false;
        }
        let phase = &self.job.spec.phases()[self.phase];
        for (i, t) in self.threads.iter_mut().enumerate() {
            t.running = running_with(phase.thread(i).instructions);
        }
        true
    }
}

/// The running state of a thread with `remaining` instructions of its
/// phase left: with none left, it waits at the barrier.
pub(crate) fn running_with(remaining: u64) -> Option<u64> {
    (remaining > 0).then_some(remaining)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_workload::Benchmark;

    fn job() -> Job {
        Job {
            id: JobId(0),
            benchmark: Benchmark::Blackscholes,
            spec: Benchmark::Blackscholes.spec(2),
            arrival: 0.0,
        }
    }

    #[test]
    fn start_initializes_phase_zero() {
        let rt = JobRuntime::start(job(), &[CoreId(0), CoreId(1)]);
        // Master runs, slave is already at the barrier (idle in phase 1).
        assert!(rt.threads[0].running.is_some());
        assert_eq!(rt.threads[1].running, None);
        assert!(rt.work_point(1).is_idle());
        assert!(!rt.work_point(0).is_idle());
    }

    #[test]
    fn phase_advance_walks_structure() {
        let mut rt = JobRuntime::start(job(), &[CoreId(0), CoreId(1)]);
        // Force master to the barrier.
        rt.threads[0].running = None;
        assert!(rt.phase_done());
        assert!(rt.advance_phase());
        // Phase 2: slave runs, master waits.
        assert_eq!(rt.threads[0].running, None);
        assert!(rt.threads[1].running.is_some());
        rt.threads[1].running = None;
        assert!(rt.advance_phase());
        assert!(!rt.advance_phase(), "three phases only");
    }

    #[test]
    fn power_history_windows_correctly() {
        let mut h = PowerHistory::new(1.0);
        h.push(0.5, 2.0);
        h.push(0.5, 4.0);
        assert!((h.average() - 3.0).abs() < 1e-12);
        // Push another 0.5 s at 6 W; the first sample should be evicted.
        h.push(0.5, 6.0);
        assert!((h.average() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn power_history_partial_trim() {
        let mut h = PowerHistory::new(1.0);
        h.push(0.8, 10.0);
        h.push(0.8, 0.0);
        // Window now covers 0.2 s of the first sample and 0.8 s of the second.
        assert!((h.average() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn power_history_empty_is_zero() {
        assert_eq!(PowerHistory::new(1.0).average(), 0.0);
    }
}
