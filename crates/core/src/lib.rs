//! # faehim — Web Services composition for distributed data mining
//!
//! A from-scratch Rust reproduction of the FAEHIM toolkit (Shaikh Ali,
//! Rana & Taylor, *Web Services Composition for Distributed Data
//! Mining*, ICPP-W 2005). This crate is the user-facing facade over the
//! substrates:
//!
//! * [`dm_data`] — ARFF/CSV datasets, filters, streaming, corpora;
//! * [`dm_algorithms`] — the WEKA-equivalent algorithm pool;
//! * [`dm_wsrf`] — SOAP/WSDL services, simulated network, UDDI, §4.5
//!   instance lifecycle;
//! * [`dm_services`] — the FAEHIM data-mining Web Services;
//! * [`dm_workflow`] — the Triana-equivalent composition engine;
//! * [`dm_viz`] — tree/chart/3-D rendering.
//!
//! ## Quickstart
//!
//! ```
//! use faehim::Toolkit;
//!
//! // Provision a host, deploy the FAEHIM suite, publish to UDDI.
//! let toolkit = Toolkit::new().unwrap();
//!
//! // Use the general Classifier Web Service exactly as the paper's
//! // case study does.
//! let client = toolkit.classifier_client();
//! let classifiers = client.get_classifiers().unwrap();
//! assert!(classifiers.contains(&"J48".to_string()));
//!
//! let model = client
//!     .classify_instance(
//!         &dm_data::corpus::breast_cancer_arff(),
//!         "J48",
//!         "-C 0.25 -M 2",
//!         "Class",
//!     )
//!     .unwrap();
//! assert!(model.contains("node-caps")); // Figure 4's root split
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod casestudy;
pub mod signal_tools;
pub mod toolkit;
pub mod tools;

pub use toolkit::Toolkit;

/// Convenience re-exports of the whole stack.
pub mod prelude {
    pub use crate::casestudy::{run_case_study, CaseStudyResult};
    pub use crate::toolkit::Toolkit;
    pub use dm_data::prelude::{
        parse_arff, write_arff, Attribute, AttributeKind, CrossValidation, Dataset, DatasetSummary,
        Instance,
    };
    pub use dm_services::prelude::{
        deploy_faehim_suite, publish_suite, ClassifierClient, ClustererClient, ConvertClient,
        J48Client,
    };
    pub use dm_workflow::prelude::{
        import_wsdl, ExecutionReport, Executor, RetryPolicy, TaskGraph, Token, Tool, Toolbox,
    };
    pub use dm_wsrf::prelude::{
        BreakerBoard, BreakerConfig, BreakerState, CircuitBreaker, ResiliencePolicy,
        ResilientCaller,
    };
}
