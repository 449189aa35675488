//! # dm-workflow — the workflow engine of `faehim-rs`
//!
//! The paper composes its data mining Web Services with the Triana
//! problem-solving environment: tools live in folders in a toolbox,
//! are dragged into a workspace, and are wired output-node →
//! input-node with cables; imported WSDL interfaces become "a tool for
//! each operation provided by the service"; workflows can be grouped
//! into hierarchical services, manipulated with pattern operators, and
//! exported as XML (Triana taskgraph and the GriPhyN DAX standard)
//! (§2, §4). Triana is a Java GUI application; this crate implements
//! the engine underneath those behaviours:
//!
//! * [`graph`] — tasks, typed ports, cables, cycle/type validation;
//! * [`toolbox`] — folders of [`graph::Tool`] definitions (Figure 1's
//!   left-hand pane) plus the built-in Common tools;
//! * [`engine`] — serial and parallel (crossbeam-scoped) enactment,
//!   with per-task retry (exponential backoff, a shared per-workflow
//!   retry budget) and host migration for fault tolerance;
//! * [`memo`] — memoised enactment: pure tasks with unchanged input
//!   fingerprints are served from an LRU result cache without
//!   executing (the workflow half of the content-addressed data
//!   plane);
//! * [`journal`] — the append-only, checksummed run-event log
//!   (version-enveloped records, torn-tail detection, large outputs
//!   persisted as content-addressed store references);
//! * [`durable`] — event-sourced durable enactment on top of the
//!   journal: an orchestrator / worker-pool split with claim/ack
//!   redelivery, scripted crash injection, and resume-from-log
//!   recovery that re-executes zero completed tasks;
//! * [`wsimport`] — WSDL import: one tool per operation, invoking the
//!   service over the simulated network with health-aware replica
//!   failover (circuit breakers, deadlines, failing-primary demotion);
//! * [`planner`] — the cost- and locality-aware composition planner:
//!   an abstract chain of service categories is bound to concrete
//!   replicas by a QoS knapsack over a live-telemetry cost snapshot,
//!   pre-ranked by a usage-log recommender;
//! * [`group`] — hierarchical services ("a single service made up of a
//!   number of others and made available as a single interface");
//! * [`patterns`] — structural pattern operators (pipeline, fan-out /
//!   fan-in star, ring) after Gomes, Rana & Cunha;
//! * [`xml`] — taskgraph XML export/import and DAX-like export.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod durable;
pub mod engine;
pub mod error;
pub mod graph;
pub mod group;
pub mod iterate;
pub mod journal;
pub mod memo;
pub mod patterns;
pub mod planner;
pub mod toolbox;
pub mod wsimport;
pub mod xml;

pub use error::{Result, WorkflowError};
pub use graph::{Cable, PortSpec, TaskGraph, TaskId, Token, Tool};

/// Convenience re-exports.
pub mod prelude {
    pub use crate::durable::DurableConfig;
    pub use crate::engine::{BackoffSink, ExecutionReport, Executor, ProgressEvent, RetryPolicy};
    pub use crate::error::{Result, WorkflowError};
    pub use crate::graph::{Cable, PortSpec, TaskGraph, TaskId, Token, Tool};
    pub use crate::journal::{JournalStats, RunEvent, RunJournal};
    pub use crate::memo::MemoCache;
    pub use crate::planner::{Goal, GoalStep, Plan, Planner, PlannerConfig, UsageRecommender};
    pub use crate::toolbox::Toolbox;
    pub use crate::wsimport::import_wsdl;
}
