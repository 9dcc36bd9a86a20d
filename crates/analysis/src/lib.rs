//! Closed-form analysis of instant ACK (paper §2, §4.1, Appendix C).
//!
//! Reproduces the numerical side of the paper: the PTO-evolution model of
//! Figure 2, the sweet-spot analysis of Figure 4, and the deployment
//! guideline matrix of Table 2.

#![forbid(unsafe_code)]

pub mod ack_delay;
pub mod guidelines;
pub mod pto_model;

pub use ack_delay::{
    ack_delay_plausible, first_pto_with_strategy, rtts_until_converged, AckDelayStrategy,
};
pub use guidelines::{recommend, Advice, DeploymentScenario};
pub use pto_model::{first_pto_reduction_rtt, pto_evolution, spurious_retransmit, PtoPoint};
