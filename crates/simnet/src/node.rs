//! Node identities in the geo-distributed topology.

use std::fmt;

/// A participant in the geo-distributed system: the single central server
/// (or fleet router), one of the medical platforms (hospitals), or one of
/// the server replicas of a sharded serving fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeId {
    /// The central server holding layers `L2..Lk` (in fleet topologies:
    /// the router fronting the replicas).
    Server,
    /// Platform `k` (0-based) holding its local data and layer `L1`.
    Platform(usize),
    /// Server replica `k` (0-based) owning a shard of `L2..Lk` sessions
    /// in a serving fleet.
    Replica(usize),
    /// Regional relay `k` (0-based) batching smashed data between the
    /// platforms of its region and the central server in a hierarchical
    /// topology.
    Relay(usize),
}

impl NodeId {
    /// The platform index, if any.
    pub fn platform_index(&self) -> Option<usize> {
        match self {
            NodeId::Platform(i) => Some(*i),
            _ => None,
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Server => write!(f, "server"),
            NodeId::Platform(i) => write!(f, "platform-{i}"),
            NodeId::Replica(i) => write!(f, "replica-{i}"),
            NodeId::Relay(i) => write!(f, "relay-{i}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_helpers() {
        assert_eq!(NodeId::Server.to_string(), "server");
        assert_eq!(NodeId::Platform(3).to_string(), "platform-3");
        assert_eq!(NodeId::Replica(2).to_string(), "replica-2");
        assert_eq!(NodeId::Platform(2).platform_index(), Some(2));
        assert_eq!(NodeId::Server.platform_index(), None);
        assert_eq!(NodeId::Replica(1).platform_index(), None);
        assert_eq!(NodeId::Relay(1).to_string(), "relay-1");
        assert_eq!(NodeId::Relay(2).platform_index(), None);
    }

    #[test]
    fn ordering_is_stable() {
        let mut v = vec![NodeId::Platform(1), NodeId::Server, NodeId::Platform(0)];
        v.sort();
        assert_eq!(v, vec![NodeId::Server, NodeId::Platform(0), NodeId::Platform(1)]);
    }
}
