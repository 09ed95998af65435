//! # mqo-shard — graph partitioning and routed serving
//!
//! The paper's largest target, Ogbn-Products, is a 2.4M-node TAG; one
//! in-memory executor cannot own it comfortably, and the query-boosting
//! rule (Algorithm 2) is the part that does not shard trivially:
//! pseudo-labels of executed queries must enrich *unexecuted neighbors*,
//! and a partition boundary severs exactly those edges. This crate is
//! the scale-out substrate:
//!
//! * [`ShardMap`] — a seeded, deterministic partition of node-id space
//!   with per-shard ranges, boundary-node lists, and cut statistics
//!   ([`mod@partition`]). Two strategies: an edge-cut-aware contiguous-range
//!   split (default — generated ids are locality-friendly) and a
//!   consistent-hash ring ([`ring`]) for deployments that prioritize
//!   membership stability over cut size.
//! * [`ShardBundle`] — the per-shard dataset image ([`bundle`]): the
//!   induced subgraph on owned ∪ halo nodes plus the local↔global id
//!   maps, persisted in a binary format extending `mqo_data::persist`
//!   so a worker loads only its shard.
//! * [`Router`] — a std-only HTTP front ([`router`]) that routes
//!   classify traffic by node ownership, fans out batches spanning
//!   shards, tracks per-shard health (eject on consecutive failures,
//!   re-admit on probe), and relays the cross-shard pseudo-label
//!   exchange: workers push boundary-node pseudo-labels to
//!   `POST /v1/labels`, the router forwards each to the shards owning
//!   the node's neighbors, and the receiving worker ingests them so the
//!   γ₁/γ₂ readiness rule sees remote cues. It runs on the shared
//!   `mqo_obs::httpd::HttpServer`, like every other endpoint.
//! * [`wire`] — the one codec for every body that crosses a process:
//!   [`ClassifyRequest`] and [`ClassifyResponse`] on `POST /v1/classify`,
//!   [`LabelBatch`] on `POST /v1/labels`. The router and the workers
//!   share it, so both refuse a malformed body with the same `400` and
//!   a routed reply has exactly the shape of a worker's.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bundle;
pub mod partition;
pub mod ring;
pub mod router;
pub mod wire;

pub use bundle::{extract_shard, ShardBundle, ShardIdentity};
pub use partition::{partition, PartitionStrategy, ShardMap, ShardMapError, ShardStats};
pub use ring::HashRing;
pub use router::{Router, RouterConfig};
pub use wire::{ClassifyRequest, ClassifyResponse, Label, LabelBatch, NodeRecord};
