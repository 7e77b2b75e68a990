//! # patty-userstudy
//!
//! A deterministic simulation of the PMAM'15 user study (Section 4).
//!
//! The original experiment put ten human engineers of mixed skill in
//! front of a RayTracing benchmark with three parallelizable locations
//! and compared Patty, a commercial profiler-first tool chain, and manual
//! work. Humans cannot ship with a library, so this crate substitutes a
//! calibrated behavioural simulation — with one important honesty rule:
//! the Patty group's findings are produced by the *real* detector running
//! on the *real* benchmark (`patty-corpus`'s ray tracer); only the human
//! factors (reading speed, race blindness, questionnaire attitudes) are
//! modeled, with all constants documented in the module sources and every
//! draw seeded.
//!
//! ```
//! use patty_userstudy::{run_study, StudyConfig};
//!
//! let results = run_study(&StudyConfig::default());
//! let eff = results.effectivity();
//! // Patty finds all three locations (Section 4.2: "100% in 39 minutes").
//! assert_eq!(eff[0].avg_found, 3.0);
//! ```

pub mod behavior;
pub mod features;
pub mod questionnaire;
pub mod roster;
pub mod study;

pub use behavior::{Benchmark, Outcome};
pub use features::{top_features, FeatureRow};
pub use questionnaire::{answer, Answers};
pub use roster::{Group, Participant, SkillBand};
pub use study::{
    run_study, EffectivityRow, IndicatorRow, StudyConfig, StudyResults, TimeRow,
};
