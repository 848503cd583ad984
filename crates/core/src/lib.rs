//! # vfl-market
//!
//! The core contribution of the `vfl-bargain` reproduction: the
//! bargaining-based feature-trading market of *"A Bargaining-based Approach
//! for Feature Trading in Vertical Federated Learning"* (Cui et al., ICDE
//! 2025).
//!
//! * [`price`] — quoted prices `(p, P0, Ph)`, reserved prices, the payment
//!   function `min{max{P0, P0 + p ΔG}, Ph}` (Definitions 2.2–2.4);
//! * [`payment`] — the parties' revenue objectives (Eq. 3 / Eq. 4);
//! * [`cost`] — bargaining cost models `a·T` / `a^T` (§3.4.4);
//! * [`listing`] — bundles on sale with cost-related reserved prices;
//! * [`termination`] — Cases 1–6 and the Eq. 6 / Eq. 7 cost rules;
//! * [`strategy`] — the strategic players plus the Increase Price and
//!   Random Bundle baselines (§4.2);
//! * [`session`] — the resumable `NegotiationSession` state machine: one
//!   three-step round encoded as `step(event) -> SessionEffect`, suspendable
//!   at the offer and course boundaries (the substrate for every driver and
//!   for the `vfl-exchange` marketplace runtime);
//! * [`engine`] — the run-to-completion driver (§3.3) with exploration
//!   (Case VII) and full protocol transcripts;
//! * [`equilibrium`] — executable Theorem 3.1 / Lemma 3.1 /
//!   Propositions 3.1–3.2 checks;
//! * [`gain`] — the `GainProvider` boundary to the VFL substrate.

pub mod audit;
pub mod config;
pub mod cost;
pub mod engine;
pub mod equilibrium;
pub mod error;
pub mod gain;
pub mod listing;
pub mod payment;
pub mod price;
pub mod session;
pub mod strategy;
pub mod termination;

pub use audit::{AuditReport, AuditViolation, Auditor, UnderreportingProvider};
pub use config::MarketConfig;
pub use cost::CostModel;
pub use engine::{run_bargaining, ClosedBy, FailureReason, Outcome, OutcomeStatus, RoundRecord};
pub use error::{MarketError, Result};
pub use gain::{GainProvider, TableGainProvider};
pub use listing::{build_listings, Listing, ReservedPricing};
pub use price::{QuotedPrice, ReservedPrice};
pub use session::{NegotiationSession, SessionEffect, SessionEvent, SessionPhase};
pub use strategy::{
    AdaptiveConfig, AdaptiveStepTask, DataContext, DataResponse, DataStrategy, IncreasePriceTask,
    RandomBundleData, StrategicData, StrategicTask, TaskContext, TaskDecision, TaskStrategy,
};
