//! # hp-campaign — deterministic parallel scenario sweeps
//!
//! The campaign layer turns "run this scheduler on this workload" into
//! "run this *grid* of scenarios": a declarative [`SweepSpec`] names the
//! axes (scheduler × benchmark × load × chip size × fault plan × seed),
//! [`SweepSpec::expand`] unrolls it into [`CampaignJob`]s, and
//! [`run_campaign`] executes them on a scoped worker pool.
//!
//! Two properties make a campaign more than a for-loop:
//!
//! * **The shared model cache.** Every job on the same chip grid needs
//!   the same expensive artifacts — the AMD ring decomposition, the LU
//!   factorization of `B`, and the eigendecomposition of `C = −A⁻¹B`
//!   behind both the transient solver and Algorithm 1, which the thermal
//!   model owns and shares with its clones. [`ModelCache`] builds them
//!   once per grid and hands every job a cheap cloned handle, with cache
//!   traffic observable as `campaign.cache.*` counters in the report.
//! * **Determinism.** The assembled [`CampaignReport`] is a function of
//!   the job vector alone: outcomes land in expansion order, cache
//!   counters are interleaving-independent, and only wall-clock
//!   histograms differ between runs — compare with
//!   [`CampaignReport::without_timings`] for bit-identical results
//!   across any worker count (DESIGN.md §11).
//!
//! Campaigns are crash-resumable: with an output directory, each
//! finished job persists a standalone `hp-report-v1` document plus a
//! manifest line keyed by the job's spec digest, and a `resume = true`
//! re-run reuses every entry whose digest still matches.
//!
//! ```no_run
//! use hp_campaign::{run_campaign, CampaignConfig, SweepSpec};
//!
//! let spec = SweepSpec::from_json_str(
//!     "{\"schedulers\": [\"hotpotato\", \"pcmig\"], \"loads\": [0.5, 1.0]}",
//! )?;
//! let jobs = spec.expand()?;
//! let config = CampaignConfig {
//!     workers: 8,
//!     ..CampaignConfig::default()
//! };
//! let report = run_campaign(&jobs, &config)?;
//! println!("{} completed", report.completed());
//! # Ok::<(), hp_campaign::CampaignError>(())
//! ```

mod cache;
mod error;
mod job;
mod report;
mod runner;
mod spec;

pub use cache::{ChipArtifacts, ModelCache, ThermalProfile};
pub use error::{CampaignError, Result};
pub use job::{build_scheduler, CampaignJob, Workload, SCHEDULER_NAMES};
pub use report::{CampaignReport, JobOutcome, JobStatus, SCHEMA};
pub use runner::{run_campaign, CampaignConfig, CAMPAIGN_FILE, MANIFEST_FILE};
pub use spec::{SweepSpec, MIXED};
