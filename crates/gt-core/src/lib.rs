//! The paper's analysis pipeline.
//!
//! Everything in Sections 3–6 and the appendices, as a library:
//!
//! * [`validate`] — landing-page validation (valid address + scam
//!   keyword heuristics);
//! * [`datasets`] — Table 1 dataset assembly for both platforms;
//! * [`payments`] — co-occurrence payment isolation (Section 5.1–5.3
//!   funnels) and Table 2 revenue;
//! * [`timeline`] — weekly lure volume (Figures 3 and 4);
//! * [`discover`] — discoverability statistics (Section 4.2);
//! * [`currencies`] — coin targeting (Section 4.3);
//! * [`victims`] — conversion rates, payment origins, whale
//!   distribution (Section 5.4);
//! * [`scammers`] — recipient addresses, cluster sizes, cash-out
//!   categories (Section 5.5);
//! * [`fig5`] — search-keyword contribution (Appendix B.2);
//! * [`pipeline`] — end-to-end orchestration over a generated world;
//! * [`supervisor`] — stage-level recovery policies, quarantine, and
//!   the run-health report;
//! * [`report`] — the paper-vs-measured experiment report.

pub mod currencies;
pub mod datasets;
pub mod discover;
pub mod executor;
pub mod fig5;
pub mod interventions;
pub mod payments;
pub mod pipeline;
pub mod report;
pub mod scammers;
pub mod supervisor;
pub mod timeline;
pub mod validate;
pub mod victims;

pub use executor::{StageGraph, StageId, StageOutputs, StageResults, StageTiming, StageTimings};
pub use pipeline::{
    ChainAnalysis, DegradationReport, FaultSource, PaperRun, Pipeline, PipelineOptions,
    StageDegradation,
};
pub use report::PaperReport;
pub use supervisor::{RunHealth, StageHealth, StageStatus, SupervisionPolicy};
