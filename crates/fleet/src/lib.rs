//! medsplit-fleet: sharded multi-tenant split-inference serving.
//!
//! The single-server serving runtime (`medsplit-serve`) batches one
//! node's worth of `L2..Lk` traffic. This crate scales that out: `N`
//! server replicas each own a shard of sessions, fronted by a router
//! that maps `(tenant, session)` onto a replica via a consistent-hash
//! ring with virtual nodes. The router enforces per-tenant admission
//! quotas and pins each session to a weight version from a shared
//! [`ModelBank`](bank::ModelBank); each replica is the serving
//! [`Executor`](medsplit_serve::Executor) of the single-server runtime
//! (dynamic batcher + busy clock, the shared batch forward) plus a
//! lifecycle phase, a session shard and per-version models, with
//! continuous batching across tenants.
//!
//! Replicas support graceful drain (stop accepting, flush in-flight
//! work, hand session state to ring successors) and rejoin; crashes are
//! exercised under the simnet chaos transport, with the router's
//! in-flight table redispatching orphaned requests so that no admitted
//! request is ever dropped. See [`sim::run_fleet`] for the
//! discrete-event driver and `DESIGN.md` §10.3 for the protocol.

#![warn(missing_docs)]

pub mod bank;
pub mod config;
pub mod replica;
pub mod ring;
pub mod router;
pub mod session;
pub mod sim;

pub use bank::{ModelBank, ModelFactory};
pub use config::FleetConfig;
pub use replica::{FleetPending, Replica, ReplicaPhase, Served};
pub use ring::{key_hash, HashRing};
pub use router::{InFlight, Router};
pub use session::{decode_sessions, encode_sessions, SessionKey, SessionState};
pub use sim::{
    run_fleet, FleetAction, FleetEvent, FleetOutcome, ReplicaReport, TenantReport, CLASSES, FEATURES,
};
