//! # mqo-serve — the online classification service
//!
//! Everything before this crate runs the paper's pipeline as a one-shot
//! batch job. This crate turns it into a long-running service: load a
//! TAG and build the client stack once, then answer classification
//! requests over std-only HTTP/1.1 on the workspace's one server,
//! [`mqo_obs::HttpServer`] (accept loop, connection threads, framing
//! `400`s and shutdown all live in [`mqo_obs::httpd`]).
//!
//! The pieces:
//!
//! * [`Engine`] — the shared brain: dataset + predictor + the full
//!   `CachedLlm → … → SimLlm` stack, a pseudo-label store (responses can
//!   boost later requests on neighboring nodes), per-tenant admission
//!   accounting, and the same crash-safe journal as the batch CLI.
//! * [`Server`] — the routes on that HTTP server: three admission gates
//!   (draining → tenant budget → the [`AdmissionGate`]) and a graceful
//!   drain that shuts the HTTP server down (finishing in-flight work),
//!   then seals the journal and closes the run span. Admitted batches
//!   run on the connection handler's thread through the engine's
//!   [`mqo_core::Scheduler`] FIFO path; classify and label bodies go
//!   through [`mqo_shard::wire`], the codec the router shares.
//! * [`AdmissionGate`] — the one admission object in front of the
//!   engine: bounded execution slots and wait room, sojourn and
//!   fair-share shedding with a computed `Retry-After`, and the
//!   brown-out lever (the paper's pruned, neighbor-free prompts). A
//!   request either gets a [`Refusal`] naming its cause or a [`Seat`]
//!   that frees the slot and the tenant's share when dropped.
//! * [`ServeConfig`] / [`ServerOptions`] — how the engine is built and
//!   how the server schedules; [`make_predictor`] and [`split_for`]
//!   build the predictor and labeled split, for the CLI's batch runs too.
//! * [`signal`] — SIGTERM/SIGINT → drain-requested flag (the only FFI in
//!   the workspace).
//!
//! Served records are bit-identical to a batch run of the same nodes
//! (with the two order-dependent optimizations — boosting and the
//! response cache — off): queries derive their RNG from `(seed, node)`,
//! so arrival order and worker interleaving cannot perturb results, and
//! the response embeds records in the exact journal format.

#![warn(missing_docs)]

mod config;
mod engine;
mod server;
pub mod shard;
pub mod shed;
pub mod signal;
mod tenant;

pub use config::{ServeConfig, ServerOptions};
pub use engine::{
    client_stack, make_predictor, split_for, ClientStack, Engine, ProcessedBatch, Rejection,
    StackSpec,
};
pub use server::{DrainReport, Server};
pub use shard::{LabelExchanger, ShardContext};
pub use shed::{AdmissionGate, BrownoutTransition, OverloadConfig, Refusal, Seat};
pub use tenant::{TenantAccount, TenantExhausted, TenantTable};
