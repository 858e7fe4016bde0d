//! # medsplit-simnet
//!
//! The geo-distributed network substrate of the medsplit evaluation: a
//! star topology of medical platforms around one central server
//! ([`StarTopology`]), links with bandwidth/latency ([`LinkSpec`]),
//! message envelopes whose payloads are exactly the serialised tensors the
//! protocols exchange ([`Envelope`]), a non-blocking FIFO in-memory
//! transport ([`MemoryTransport`]; every driver runs on its caller's
//! thread, and only the kernel pool starts threads), seeded fault
//! injection ([`ChaosTransport`] under a [`FaultPlan`]) and
//! — the quantity the paper's Fig. 4 plots — exact wire-byte accounting
//! with a causal simulated clock ([`NetStats`]).
//!
//! ```
//! use bytes::Bytes;
//! use medsplit_simnet::{Envelope, MemoryTransport, MessageKind, NodeId, StarTopology, Transport};
//!
//! let net = MemoryTransport::new(StarTopology::new(2));
//! net.send(Envelope::new(
//!     NodeId::Platform(0),
//!     NodeId::Server,
//!     0,
//!     MessageKind::Activations,
//!     Bytes::from(vec![0u8; 128]),
//! ))?;
//! assert_eq!(net.stats().snapshot().total_bytes, 128 + 64);
//! # Ok::<(), medsplit_simnet::NetError>(())
//! ```

#![warn(missing_docs)]

mod chaos;
mod link;
mod message;
mod node;
mod stats;
mod topology;
mod transport;

pub use chaos::{ChaosEvent, ChaosRng, ChaosSnapshot, ChaosStats, ChaosTransport, FaultPlan, LinkFaults};
pub use link::LinkSpec;
pub use message::{payload_checksum, Envelope, FrameError, MessageKind, FRAME_HEADER_LEN, HEADER_BYTES};
pub use node::NodeId;
pub use stats::{NetStats, StatsSnapshot};
pub use topology::{FleetTopology, HierTopology, StarTopology, Topology};
pub use transport::{MemoryTransport, NetError, Transport};
