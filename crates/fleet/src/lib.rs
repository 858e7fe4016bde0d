//! medsplit-fleet: the fleet half of `medsplit-serve`, re-exported.
//!
//! Sharded multi-tenant serving — `N` replicas behind a router with a
//! consistent-hash ring, per-tenant quotas, weight-version pins,
//! drain/rejoin and crash re-dispatch — runs on the one serving loop of
//! `medsplit-serve`, where a single server is a fleet of one. Its modules
//! live in that crate now; this crate keeps their old paths until the
//! callers move (ROADMAP item 5(f)).

pub use medsplit_serve::bank::ModelBank;
pub use medsplit_serve::config::FleetConfig;
pub use medsplit_serve::replica::{FleetPending, Replica, ReplicaPhase};
pub use medsplit_serve::ring::{key_hash, HashRing};
pub use medsplit_serve::router::{InFlight, Router};
pub use medsplit_serve::session::{decode_sessions, encode_sessions, SessionKey, SessionState};
pub use medsplit_serve::sim::{run_fleet, FleetAction, FleetEvent, FleetOutcome, CLASSES, FEATURES};
