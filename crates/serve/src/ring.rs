//! Consistent-hash routing ring with virtual nodes.
//!
//! The router maps a `(tenant, session)` key to a server replica by
//! hashing the key onto a ring of replica points and walking clockwise to
//! the first *active* point. Each replica contributes `vnodes` points so
//! load spreads evenly; when a replica is drained or crashes it is marked
//! inactive rather than removed, which is exactly the "successor takes
//! over" semantics the drain protocol needs — and when it rejoins, the
//! same keys fall back to it because its points never moved.
//!
//! Hashing is FNV-1a over explicit little-endian byte strings, so routing
//! is deterministic across processes and platforms (no `RandomState`).

use medsplit_tensor::{fnv1a, FNV_OFFSET};

/// Hash of a routing key.
pub fn key_hash(tenant: u64, session: u64) -> u64 {
    let mut buf = [0u8; 17];
    buf[0] = b'k';
    buf[1..9].copy_from_slice(&tenant.to_le_bytes());
    buf[9..17].copy_from_slice(&session.to_le_bytes());
    fnv1a(FNV_OFFSET, &buf)
}

fn point_hash(replica: usize, vnode: usize) -> u64 {
    let mut buf = [0u8; 17];
    buf[0] = b'r';
    buf[1..9].copy_from_slice(&(replica as u64).to_le_bytes());
    buf[9..17].copy_from_slice(&(vnode as u64).to_le_bytes());
    fnv1a(FNV_OFFSET, &buf)
}

/// A consistent-hash ring over server replicas.
#[derive(Debug, Clone)]
pub struct HashRing {
    vnodes: usize,
    /// Ring points sorted by hash: `(point_hash, replica)`.
    points: Vec<(u64, usize)>,
    /// Replica ids currently on the ring, sorted.
    members: Vec<usize>,
    /// Inactive members are skipped during routing but keep their points.
    inactive: Vec<usize>,
}

impl HashRing {
    /// A ring holding replicas `0..replicas`, each with `vnodes` points,
    /// all active.
    ///
    /// # Panics
    ///
    /// Panics if `vnodes == 0` (a replica with no points is unroutable).
    pub fn new(replicas: usize, vnodes: usize) -> Self {
        assert!(vnodes >= 1, "vnodes must be at least 1");
        let mut ring = HashRing {
            vnodes,
            points: Vec::new(),
            members: Vec::new(),
            inactive: Vec::new(),
        };
        for r in 0..replicas {
            ring.add_replica(r);
        }
        ring
    }

    /// Number of virtual nodes per replica.
    pub fn vnodes(&self) -> usize {
        self.vnodes
    }

    /// Replica ids on the ring, ascending.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Adds a replica's points to the ring (no-op if already a member).
    /// The new replica starts active.
    pub fn add_replica(&mut self, replica: usize) {
        if self.members.contains(&replica) {
            return;
        }
        self.members.push(replica);
        self.members.sort_unstable();
        for v in 0..self.vnodes {
            self.points.push((point_hash(replica, v), replica));
        }
        // Ties between distinct points are broken by replica id so the
        // ring order is total and process-independent.
        self.points.sort_unstable();
    }

    /// Removes a replica's points from the ring entirely (permanent
    /// decommission — for temporary outages use [`set_active`]).
    ///
    /// [`set_active`]: HashRing::set_active
    pub fn remove_replica(&mut self, replica: usize) {
        self.members.retain(|&r| r != replica);
        self.inactive.retain(|&r| r != replica);
        self.points.retain(|&(_, r)| r != replica);
    }

    /// Marks a replica active (routable) or inactive (skipped; its keys
    /// fall through to ring successors until it returns).
    pub fn set_active(&mut self, replica: usize, active: bool) {
        if active {
            self.inactive.retain(|&r| r != replica);
        } else if self.members.contains(&replica) && !self.inactive.contains(&replica) {
            self.inactive.push(replica);
        }
    }

    /// Routes a key to its owning active replica: the first active point
    /// clockwise from the key's hash. `None` when no replica is active.
    pub fn route(&self, tenant: u64, session: u64) -> Option<usize> {
        self.walk(key_hash(tenant, session), |r| !self.inactive.contains(&r))
    }

    /// The key's owner if *every* member were active — where the key
    /// "homes", used to decide which sessions return to a rejoined
    /// replica.
    pub fn home(&self, tenant: u64, session: u64) -> Option<usize> {
        self.walk(key_hash(tenant, session), |_| true)
    }

    /// The first active replica clockwise from the key that is *not*
    /// `skip` — the drain/crash successor for a session owned by `skip`.
    pub fn successor(&self, tenant: u64, session: u64, skip: usize) -> Option<usize> {
        self.walk(key_hash(tenant, session), |r| {
            r != skip && !self.inactive.contains(&r)
        })
    }

    fn walk(&self, key: u64, accept: impl Fn(usize) -> bool) -> Option<usize> {
        if self.points.is_empty() {
            return None;
        }
        let start = self.points.partition_point(|&(h, _)| h < key);
        let n = self.points.len();
        for i in 0..n {
            let (_, replica) = self.points[(start + i) % n];
            if accept(replica) {
                return Some(replica);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_are_deterministic_and_in_range() {
        let ring = HashRing::new(4, 16);
        for t in 0..8u64 {
            for s in 0..8u64 {
                let a = ring.route(t, s).unwrap();
                let b = ring.route(t, s).unwrap();
                assert_eq!(a, b);
                assert!(a < 4);
            }
        }
    }

    #[test]
    fn inactive_replica_is_skipped_and_returns() {
        let mut ring = HashRing::new(3, 32);
        // Find a key owned by replica 1.
        let (t, s) = (0..1000u64)
            .map(|s| (7u64, s))
            .find(|&(t, s)| ring.route(t, s) == Some(1))
            .expect("some key routes to replica 1");
        ring.set_active(1, false);
        assert!(ring.inactive.contains(&1));
        let fallback = ring.route(t, s).unwrap();
        assert_ne!(fallback, 1);
        assert_eq!(ring.successor(t, s, 1), Some(fallback));
        // Keys not owned by 1 are unaffected.
        ring.set_active(1, true);
        assert_eq!(ring.route(t, s), Some(1), "key falls back to its home");
        assert_eq!(ring.home(t, s), Some(1));
    }

    #[test]
    fn removing_a_member_keeps_other_routes() {
        let mut ring = HashRing::new(4, 32);
        let before: Vec<Option<usize>> = (0..200u64).map(|s| ring.route(3, s)).collect();
        ring.remove_replica(2);
        assert_eq!(ring.members(), &[0, 1, 3]);
        for (s, prev) in before.iter().enumerate() {
            let now = ring.route(3, s as u64);
            if *prev != Some(2) {
                assert_eq!(now, *prev, "non-victim key {s} moved on removal");
            } else {
                assert_ne!(now, Some(2));
            }
        }
    }

    #[test]
    fn empty_ring_routes_nowhere() {
        let mut ring = HashRing::new(1, 4);
        assert!(ring.route(0, 0).is_some());
        ring.set_active(0, false);
        assert_eq!(ring.route(0, 0), None);
        ring.remove_replica(0);
        assert_eq!(ring.route(0, 0), None);
        assert_eq!(ring.home(0, 0), None);
    }

    #[test]
    #[should_panic(expected = "vnodes")]
    fn zero_vnodes_panics() {
        let _ = HashRing::new(2, 0);
    }
}
