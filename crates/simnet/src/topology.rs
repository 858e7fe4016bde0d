//! Network topologies.

use std::collections::HashMap;

use crate::link::LinkSpec;
use crate::node::NodeId;

/// A routable set of nodes and directed links.
///
/// [`MemoryTransport`](crate::MemoryTransport) is generic over this
/// trait, so the same mailbox/accounting machinery serves both the
/// paper's single-server star and the sharded serving fleet.
pub trait Topology: Send + Sync {
    /// All node ids, in a stable order.
    fn nodes(&self) -> Vec<NodeId>;

    /// The link used for a directed edge, if the edge exists.
    fn link(&self, src: NodeId, dst: NodeId) -> Option<LinkSpec>;
}

/// A star topology: every platform connects to the central server over
/// WAN links, as in the paper's Fig. 1. Single edges can be overridden
/// (e.g. one rural hospital on a slow uplink).
#[derive(Debug, Clone, PartialEq)]
pub struct StarTopology {
    platforms: usize,
    overrides: HashMap<(NodeId, NodeId), LinkSpec>,
}

impl StarTopology {
    /// A star with `platforms` spokes and symmetric WAN links.
    pub fn new(platforms: usize) -> Self {
        StarTopology {
            platforms,
            overrides: HashMap::new(),
        }
    }

    /// Overrides one directed edge.
    pub fn with_override(mut self, src: NodeId, dst: NodeId, link: LinkSpec) -> Self {
        self.overrides.insert((src, dst), link);
        self
    }

    /// Number of platforms.
    pub fn platforms(&self) -> usize {
        self.platforms
    }

    /// All node ids: the server followed by each platform.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut v = vec![NodeId::Server];
        v.extend((0..self.platforms).map(NodeId::Platform));
        v
    }

    /// The link used for a directed edge, if the edge exists in the star.
    ///
    /// Platform↔platform edges do not exist (traffic is relayed through
    /// the server, as the protocols do).
    pub fn link(&self, src: NodeId, dst: NodeId) -> Option<LinkSpec> {
        if let Some(l) = self.overrides.get(&(src, dst)) {
            return Some(*l);
        }
        match (src, dst) {
            (NodeId::Platform(i), NodeId::Server) | (NodeId::Server, NodeId::Platform(i))
                if i < self.platforms =>
            {
                Some(LinkSpec::wan())
            }
            _ => None,
        }
    }
}

impl Topology for StarTopology {
    fn nodes(&self) -> Vec<NodeId> {
        StarTopology::nodes(self)
    }

    fn link(&self, src: NodeId, dst: NodeId) -> Option<LinkSpec> {
        StarTopology::link(self, src, dst)
    }
}

/// The sharded serving fleet's topology: platforms reach a router (the
/// [`NodeId::Server`] slot) over WAN links, the router fans out to `N`
/// server replicas over a datacenter LAN, replicas answer platforms
/// directly over the WAN downlink, and replicas exchange session-handoff
/// traffic with each other over the LAN.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTopology {
    platforms: usize,
    replicas: usize,
}

impl FleetTopology {
    /// A fleet with WAN platform links and LAN replica links.
    pub fn new(platforms: usize, replicas: usize) -> Self {
        FleetTopology { platforms, replicas }
    }

    /// Number of platforms.
    pub fn platforms(&self) -> usize {
        self.platforms
    }

    /// Number of server replicas.
    pub fn replicas(&self) -> usize {
        self.replicas
    }
}

impl Topology for FleetTopology {
    fn nodes(&self) -> Vec<NodeId> {
        let mut v = vec![NodeId::Server];
        v.extend((0..self.replicas).map(NodeId::Replica));
        v.extend((0..self.platforms).map(NodeId::Platform));
        v
    }

    fn link(&self, src: NodeId, dst: NodeId) -> Option<LinkSpec> {
        match (src, dst) {
            // Request path: platform → router → replica.
            (NodeId::Platform(i), NodeId::Server) if i < self.platforms => Some(LinkSpec::wan()),
            (NodeId::Server, NodeId::Replica(r)) if r < self.replicas => Some(LinkSpec::lan()),
            // Response path: replica → platform, skipping the router.
            (NodeId::Replica(r), NodeId::Platform(i)) if r < self.replicas && i < self.platforms => {
                Some(LinkSpec::wan())
            }
            // Rebalancing paths: replica ↔ replica and replica → router.
            (NodeId::Replica(a), NodeId::Replica(b)) if a < self.replicas && b < self.replicas && a != b => {
                Some(LinkSpec::lan())
            }
            (NodeId::Replica(r), NodeId::Server) if r < self.replicas => Some(LinkSpec::lan()),
            // The router also answers platforms directly (rejections).
            (NodeId::Server, NodeId::Platform(i)) if i < self.platforms => Some(LinkSpec::wan()),
            _ => None,
        }
    }
}

/// A hierarchical topology: platforms are grouped into regions, each
/// region is served by one relay, and relays connect to the central
/// server over a WAN backbone. Platforms normally talk only to their
/// home relay over a fast metro link; every platform also keeps slower
/// escape hatches — a cross-region link to every foreign relay and a
/// direct link to the server — so a trainer can fail over when its home
/// relay crashes or its region partitions.
///
/// Region `g` owns platforms `g·P .. (g+1)·P` where `P = per_region`;
/// relay `g` serves region `g`.
#[derive(Debug, Clone, PartialEq)]
pub struct HierTopology {
    regions: usize,
    per_region: usize,
}

impl HierTopology {
    /// A hierarchy of `regions × per_region` platforms with metro
    /// regional links, a WAN relay backbone, and broadband fallbacks
    /// (cross-region and direct-to-server).
    pub fn new(regions: usize, per_region: usize) -> Self {
        HierTopology { regions, per_region }
    }

    /// Number of regions (= number of relays).
    pub fn regions(&self) -> usize {
        self.regions
    }

    /// Platforms per region.
    pub fn per_region(&self) -> usize {
        self.per_region
    }

    /// Total number of platforms.
    pub fn platforms(&self) -> usize {
        self.regions * self.per_region
    }

    /// The region (= home relay index) of platform `pid`.
    pub fn home_relay(&self, pid: usize) -> usize {
        debug_assert!(pid < self.platforms());
        pid / self.per_region
    }

    /// The platform ids of region `g`, in ascending order.
    pub fn region_platforms(&self, g: usize) -> std::ops::Range<usize> {
        g * self.per_region..(g + 1) * self.per_region
    }
}

impl Topology for HierTopology {
    fn nodes(&self) -> Vec<NodeId> {
        let mut v = vec![NodeId::Server];
        v.extend((0..self.regions).map(NodeId::Relay));
        v.extend((0..self.platforms()).map(NodeId::Platform));
        v
    }

    fn link(&self, src: NodeId, dst: NodeId) -> Option<LinkSpec> {
        let n = self.platforms();
        match (src, dst) {
            // Platform ↔ relay: metro at home, broadband cross-region.
            (NodeId::Platform(i), NodeId::Relay(r)) | (NodeId::Relay(r), NodeId::Platform(i))
                if i < n && r < self.regions =>
            {
                Some(if self.home_relay(i) == r {
                    LinkSpec::metro()
                } else {
                    LinkSpec::broadband()
                })
            }
            // Relay ↔ server backbone.
            (NodeId::Relay(r), NodeId::Server) | (NodeId::Server, NodeId::Relay(r)) if r < self.regions => {
                Some(LinkSpec::wan())
            }
            // Direct platform ↔ server fallback.
            (NodeId::Platform(i), NodeId::Server) | (NodeId::Server, NodeId::Platform(i)) if i < n => {
                Some(LinkSpec::broadband())
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_edges() {
        let t = StarTopology::new(3);
        assert_eq!(t.platforms(), 3);
        assert_eq!(t.nodes().len(), 4);
        assert!(t.link(NodeId::Platform(0), NodeId::Server).is_some());
        assert!(t.link(NodeId::Server, NodeId::Platform(2)).is_some());
        // No platform-to-platform edges, no out-of-range platforms.
        assert!(t.link(NodeId::Platform(0), NodeId::Platform(1)).is_none());
        assert!(t.link(NodeId::Platform(3), NodeId::Server).is_none());
        assert!(t.link(NodeId::Server, NodeId::Server).is_none());
    }

    #[test]
    fn fleet_edges() {
        let t = FleetTopology::new(2, 3);
        assert_eq!(t.platforms(), 2);
        assert_eq!(t.replicas(), 3);
        // Server + replicas + platforms, in that order.
        let nodes = Topology::nodes(&t);
        assert_eq!(nodes.len(), 6);
        assert_eq!(nodes[0], NodeId::Server);
        assert_eq!(nodes[1], NodeId::Replica(0));
        assert_eq!(nodes[5], NodeId::Platform(1));
        // Request path.
        assert_eq!(t.link(NodeId::Platform(0), NodeId::Server), Some(LinkSpec::wan()));
        assert_eq!(t.link(NodeId::Server, NodeId::Replica(2)), Some(LinkSpec::lan()));
        // Response path skips the router.
        assert_eq!(
            t.link(NodeId::Replica(1), NodeId::Platform(0)),
            Some(LinkSpec::wan())
        );
        // Handoff path.
        assert_eq!(
            t.link(NodeId::Replica(0), NodeId::Replica(1)),
            Some(LinkSpec::lan())
        );
        assert!(t.link(NodeId::Replica(0), NodeId::Replica(0)).is_none());
        // Out-of-range nodes have no edges.
        assert!(t.link(NodeId::Platform(2), NodeId::Server).is_none());
        assert!(t.link(NodeId::Server, NodeId::Replica(3)).is_none());
        // Platforms never talk to replicas directly on the way in.
        assert!(t.link(NodeId::Platform(0), NodeId::Replica(0)).is_none());
    }

    #[test]
    fn hier_edges() {
        let t = HierTopology::new(2, 3);
        assert_eq!(t.regions(), 2);
        assert_eq!(t.per_region(), 3);
        assert_eq!(t.platforms(), 6);
        assert_eq!(t.home_relay(0), 0);
        assert_eq!(t.home_relay(2), 0);
        assert_eq!(t.home_relay(3), 1);
        assert_eq!(t.region_platforms(1).collect::<Vec<_>>(), vec![3, 4, 5]);
        // Server, then relays, then platforms.
        let nodes = Topology::nodes(&t);
        assert_eq!(nodes.len(), 9);
        assert_eq!(nodes[0], NodeId::Server);
        assert_eq!(nodes[1], NodeId::Relay(0));
        assert_eq!(nodes[3], NodeId::Platform(0));
        // Home links are metro, cross-region links broadband.
        assert_eq!(
            t.link(NodeId::Platform(0), NodeId::Relay(0)),
            Some(LinkSpec::metro())
        );
        assert_eq!(
            t.link(NodeId::Relay(0), NodeId::Platform(0)),
            Some(LinkSpec::metro())
        );
        assert_eq!(
            t.link(NodeId::Platform(0), NodeId::Relay(1)),
            Some(LinkSpec::broadband())
        );
        // Backbone and direct fallback.
        assert_eq!(t.link(NodeId::Relay(1), NodeId::Server), Some(LinkSpec::wan()));
        assert_eq!(t.link(NodeId::Server, NodeId::Relay(0)), Some(LinkSpec::wan()));
        assert_eq!(
            t.link(NodeId::Platform(5), NodeId::Server),
            Some(LinkSpec::broadband())
        );
        // No platform↔platform or relay↔relay edges; ranges enforced.
        assert!(t.link(NodeId::Platform(0), NodeId::Platform(1)).is_none());
        assert!(t.link(NodeId::Relay(0), NodeId::Relay(1)).is_none());
        assert!(t.link(NodeId::Platform(6), NodeId::Server).is_none());
        assert!(t.link(NodeId::Platform(0), NodeId::Relay(2)).is_none());
    }

    #[test]
    fn per_edge_override() {
        let slow = LinkSpec {
            bandwidth_bps: 1e6,
            latency_s: 0.2,
        };
        let t = StarTopology::new(2).with_override(NodeId::Platform(1), NodeId::Server, slow);
        assert_eq!(t.link(NodeId::Platform(1), NodeId::Server).unwrap(), slow);
        assert_eq!(
            t.link(NodeId::Platform(0), NodeId::Server).unwrap(),
            LinkSpec::wan()
        );
    }
}
