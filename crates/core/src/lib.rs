//! # svqa
//!
//! **SVQA** — semantic question answering across images and graphs. A
//! from-scratch Rust reproduction of "Across Images and Graphs for Question
//! Answering" (ICDE 2024).
//!
//! The crate wires the subsystem crates into the paper's Fig. 2 pipeline:
//!
//! ```text
//! images ──▶ scene-graph generation (svqa-vision, §III-A, TDE debiasing)
//!                    │
//! knowledge graph ──▶ data aggregator (svqa-aggregator, §III-B, Alg. 1)
//!                    │
//!                    ▼
//!              merged graph G_mg
//!                    ▲
//! question ──▶ query-graph generator (svqa-qparser, §IV, Alg. 2)
//!                    │
//!                    ▼
//!              query executor (svqa-executor, §V, Alg. 3 + caching)
//!                    │
//!                    ▼
//!                  answer
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use svqa::{Svqa, SvqaConfig};
//! use svqa_dataset::Mvqa;
//!
//! // A miniature MVQA-style world: synthetic images + knowledge graph.
//! let mvqa = Mvqa::generate_small(150, 7);
//! let system = Svqa::build(&mvqa.images, &mvqa.kg, SvqaConfig::default());
//! let answer = system
//!     .answer("How many dogs are sitting on the grass?")
//!     .unwrap();
//! println!("answer: {answer}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod degrade;
pub mod error;
pub mod eval;
pub mod pipeline;
pub mod serve;

pub use config::SvqaConfig;
pub use degrade::{AnswerStatus, Breakers, GuardedAnswer};
pub use error::SvqaError;
pub use eval::{evaluate_on_mvqa, evaluate_on_mvqa_guarded, EvalOutcome, GuardedEvalOutcome};
pub use pipeline::{Answered, BatchOutcome, BuildStats, Prepared, Svqa};
pub use serve::{QueryServer, ServeConfig};

// Re-export the subsystem crates so downstream users need a single
// dependency.
pub use svqa_aggregator as aggregator;
pub use svqa_fault as fault;
pub use svqa_baselines as baselines;
pub use svqa_dataset as dataset;
pub use svqa_executor as executor;
pub use svqa_graph as graph;
pub use svqa_nlp as nlp;
pub use svqa_qlint as qlint;
pub use svqa_qparser as qparser;
pub use svqa_telemetry as telemetry;
pub use svqa_vision as vision;

pub use svqa_executor::Answer;
