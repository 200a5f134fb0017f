//! A timing wrapper around a [`Scheduler`].
//!
//! Untraced, it only reads the clock around `schedule` into a
//! preallocated buffer; traced, it also logs each call as a span tagged
//! `placement` or `steady`. Everything else forwards to the wrapped
//! scheduler, so the simulation cannot tell the difference.

use std::time::Instant;

use hp_sim::{Action, Scheduler, SchedulerHealth, SimView};

use crate::spans::{Span, SpanLog};

/// One `schedule` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HookSample {
    /// Host time inside the wrapped `schedule`, nanoseconds.
    pub ns: u64,
    /// Whether the call placed a job (see [`is_placement`]).
    pub placement: bool,
}

/// A hook is a *placement* when its actions place a job, and *steady*
/// (rotations, migrations, DVFS, or nothing) otherwise.
pub fn is_placement(actions: &[Action]) -> bool {
    actions.iter().any(|a| matches!(a, Action::PlaceJob { .. }))
}

/// Where a traced wrapper logs its spans.
pub struct HookTrace<'a> {
    /// The shared log.
    pub log: &'a mut SpanLog,
    /// The enclosing `Simulation::run` span.
    pub parent: usize,
    /// The simulation the hooks belong to.
    pub group: u32,
}

/// Times every `schedule` call of `inner`.
pub struct TimedScheduler<'a> {
    inner: &'a mut dyn Scheduler,
    samples: &'a mut Vec<HookSample>,
    trace: Option<HookTrace<'a>>,
}

impl<'a> TimedScheduler<'a> {
    /// Wraps `inner`, appending one sample per hook to `samples` (which
    /// the caller sizes up front) and, when `trace` is set, one span.
    pub fn new(
        inner: &'a mut dyn Scheduler,
        samples: &'a mut Vec<HookSample>,
        trace: Option<HookTrace<'a>>,
    ) -> Self {
        TimedScheduler {
            inner,
            samples,
            trace,
        }
    }
}

impl Scheduler for TimedScheduler<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, view: &SimView<'_>) -> Vec<Action> {
        let start = Instant::now();
        let actions = self.inner.schedule(view);
        let end = Instant::now();
        let placement = is_placement(&actions);
        let ns = u64::try_from((end - start).as_nanos()).unwrap_or(u64::MAX);
        self.samples.push(HookSample { ns, placement });
        if let Some(t) = self.trace.as_mut() {
            let span = Span {
                name: "schedule",
                tag: if placement { "placement" } else { "steady" },
                group: t.group,
                parent: Some(t.parent),
                start_ns: t.log.offset_ns(start),
                end_ns: t.log.offset_ns(end),
            };
            t.log.push(span);
        }
        actions
    }

    fn health(&self) -> SchedulerHealth {
        self.inner.health()
    }

    fn observability(&self) -> Option<hp_obs::RunReport> {
        self.inner.observability()
    }

    fn snapshot(&self) -> Option<String> {
        self.inner.snapshot()
    }

    fn restore(&mut self, state: &str) -> Result<(), String> {
        self.inner.restore(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hp_floorplan::CoreId;
    use hp_manycore::{ArchConfig, Machine};
    use hp_power::DvfsLevel;
    use hp_sim::schedulers::PinnedScheduler;
    use hp_sim::{SimConfig, Simulation, ThreadId};
    use hp_thermal::ThermalConfig;
    use hp_workload::{open_poisson, JobId};

    #[test]
    fn placement_means_a_place_job_action() {
        let place = Action::PlaceJob {
            job: JobId(0),
            cores: vec![CoreId(1)],
        };
        let migrate = Action::Migrate {
            thread: ThreadId {
                job: JobId(0),
                index: 0,
            },
            to: CoreId(2),
        };
        let dvfs = Action::SetAllLevels {
            level: DvfsLevel(0),
        };
        assert!(!is_placement(&[]));
        assert!(!is_placement(&[migrate.clone(), dvfs.clone()]));
        assert!(is_placement(std::slice::from_ref(&place)));
        assert!(is_placement(&[migrate, place, dvfs]));
    }

    fn small_sim() -> Simulation {
        let machine = Machine::new(ArchConfig {
            grid_width: 4,
            grid_height: 4,
            ..ArchConfig::default()
        })
        .expect("4x4 machine");
        Simulation::new(machine, ThermalConfig::default(), SimConfig::default()).expect("engine")
    }

    #[test]
    fn wrapper_counts_every_hook_and_leaves_the_run_unchanged() {
        let jobs = open_poisson(6, 400.0, 3);
        let bare = small_sim()
            .run(jobs.clone(), &mut PinnedScheduler::new())
            .expect("bare run");

        let mut inner = PinnedScheduler::new();
        let mut samples = Vec::with_capacity(1024);
        let mut log = SpanLog::with_capacity(1024);
        let run_span = log.begin("Simulation::run", 7, None);
        let wrapped = {
            let trace = HookTrace {
                log: &mut log,
                parent: run_span,
                group: 7,
            };
            let mut timed = TimedScheduler::new(&mut inner, &mut samples, Some(trace));
            assert_eq!(timed.name(), "pinned");
            small_sim().run(jobs, &mut timed).expect("wrapped run")
        };
        log.end(run_span);

        assert_eq!(
            wrapped.observability.without_timings(),
            bare.observability.without_timings()
        );
        let hooks = bare
            .observability
            .counter("engine.sched_hooks")
            .expect("hooks");
        assert_eq!(samples.len() as u64, hooks);
        // Staggered arrivals: several hooks place a job, most do not.
        let placements = samples.iter().filter(|s| s.placement).count();
        assert!((2..=6).contains(&placements), "{placements} placements");
        assert!(placements < samples.len());
        // One span per hook, tagged like its sample, under the run span.
        let hook_spans: Vec<_> = log
            .spans()
            .iter()
            .filter(|s| s.name == "schedule")
            .collect();
        assert_eq!(hook_spans.len(), samples.len());
        for (span, sample) in hook_spans.iter().zip(&samples) {
            assert_eq!(span.tag == "placement", sample.placement);
            assert_eq!((span.parent, span.group), (Some(run_span), 7));
        }
    }

    /// A scheduler whose every trait method is observable.
    struct Probe {
        restored: Option<String>,
    }

    impl Scheduler for Probe {
        fn name(&self) -> &str {
            "probe"
        }
        fn schedule(&mut self, _view: &SimView<'_>) -> Vec<Action> {
            Vec::new()
        }
        fn health(&self) -> SchedulerHealth {
            SchedulerHealth::Degraded
        }
        fn observability(&self) -> Option<hp_obs::RunReport> {
            let mut r = hp_obs::RunReport::new();
            r.push_counter("probe.calls", 3);
            Some(r)
        }
        fn snapshot(&self) -> Option<String> {
            Some("state".into())
        }
        fn restore(&mut self, state: &str) -> Result<(), String> {
            self.restored = Some(state.to_string());
            Ok(())
        }
    }

    #[test]
    fn wrapper_forwards_everything_but_schedule() {
        let mut probe = Probe { restored: None };
        let mut samples = Vec::new();
        {
            let mut timed = TimedScheduler::new(&mut probe, &mut samples, None);
            assert_eq!(timed.name(), "probe");
            assert_eq!(timed.health(), SchedulerHealth::Degraded);
            let report = timed.observability().expect("forwarded report");
            assert_eq!(report.counter("probe.calls"), Some(3));
            assert_eq!(timed.snapshot().as_deref(), Some("state"));
            timed.restore("again").expect("forwarded restore");
        }
        assert_eq!(probe.restored.as_deref(), Some("again"));
        assert!(samples.is_empty());
    }
}
