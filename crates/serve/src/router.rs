//! The fleet router: admission quotas, version pinning, and the
//! authoritative in-flight table that makes crash redispatch possible.

use std::collections::HashMap;

use crate::ring::{key_hash, HashRing};
use crate::session::SessionKey;
use crate::wire::RoutedRequest;

/// One dispatched-but-unanswered request, kept at the router so a replica
/// crash can re-route it instead of losing it.
#[derive(Debug, Clone)]
pub struct InFlight {
    /// Platform that submitted the request.
    pub platform: usize,
    /// Replica the current attempt was dispatched to.
    pub replica: usize,
    /// Dispatch attempt number, starting at 0; bumped on redispatch so a
    /// stale in-transit copy of an earlier attempt can be recognised and
    /// dropped.
    pub attempt: usize,
    /// The full routed request (re-sent verbatim on redispatch).
    pub req: RoutedRequest,
}

/// The admission/routing half of the fleet, fronting every replica.
#[derive(Debug)]
pub struct Router {
    ring: HashRing,
    quota: usize,
    versions: u32,
    /// Sticky version pins, assigned deterministically on first sight.
    pins: HashMap<SessionKey, u32>,
    /// In-flight admitted requests by id.
    inflight: HashMap<u64, InFlight>,
    /// Admitted-but-unanswered count per tenant (the quota variable).
    tenant_inflight: HashMap<u64, usize>,
}

impl Router {
    /// A router over `replicas` active replicas.
    pub fn new(replicas: usize, vnodes: usize, quota: usize, versions: u32) -> Self {
        Router {
            ring: HashRing::new(replicas, vnodes),
            quota,
            versions,
            pins: HashMap::new(),
            inflight: HashMap::new(),
            tenant_inflight: HashMap::new(),
        }
    }

    /// The routing ring.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Mutable ring access (membership and activity changes).
    pub fn ring_mut(&mut self) -> &mut HashRing {
        &mut self.ring
    }

    /// The session's pinned weight version, assigning one on first sight.
    /// The pin is a deterministic function of the key and the version
    /// count alone — never of fleet size — so logits are bit-identical
    /// across replica counts.
    pub fn pin_version(&mut self, key: SessionKey) -> u32 {
        let versions = self.versions;
        *self
            .pins
            .entry(key)
            .or_insert_with(|| (key_hash(key.tenant, key.session) % u64::from(versions)) as u32)
    }

    /// Tries to admit one request for `tenant` under its quota,
    /// incrementing the in-flight count on success.
    pub fn try_admit(&mut self, tenant: u64) -> bool {
        let count = self.tenant_inflight.entry(tenant).or_insert(0);
        if *count >= self.quota {
            return false;
        }
        *count += 1;
        true
    }

    /// Records a dispatched request in the in-flight table.
    pub fn record_dispatch(&mut self, entry: InFlight) {
        self.inflight.insert(entry.req.id, entry);
    }

    /// Looks up an in-flight entry by id.
    pub fn in_flight(&self, id: u64) -> Option<&InFlight> {
        self.inflight.get(&id)
    }

    /// Marks a request terminal: removes it from the in-flight table and
    /// releases its tenant quota slot. Idempotent for unknown ids.
    pub fn complete(&mut self, id: u64) {
        if let Some(entry) = self.inflight.remove(&id) {
            if let Some(count) = self.tenant_inflight.get_mut(&entry.req.tenant) {
                *count = count.saturating_sub(1);
            }
        }
    }

    /// Releases a tenant quota slot for a request that was admitted but
    /// never dispatched (terminal answer produced at the router itself).
    pub fn release(&mut self, tenant: u64) {
        if let Some(count) = self.tenant_inflight.get_mut(&tenant) {
            *count = count.saturating_sub(1);
        }
    }

    /// Removes and returns one in-flight entry by id (redispatch of a
    /// single request that reached a draining replica). The tenant's
    /// quota slot stays held; the redispatcher settles it at the
    /// request's eventual terminal answer.
    pub fn take_inflight(&mut self, id: u64) -> Option<InFlight> {
        self.inflight.remove(&id)
    }

    /// Removes and returns every in-flight entry currently assigned to
    /// `replica` — the redispatch set after that replica crashes. Sorted
    /// by id so redispatch order is deterministic.
    pub fn take_inflight_for(&mut self, replica: usize) -> Vec<InFlight> {
        let ids: Vec<u64> = self
            .inflight
            .iter()
            .filter(|(_, e)| e.replica == replica)
            .map(|(&id, _)| id)
            .collect();
        let mut out: Vec<InFlight> = ids
            .into_iter()
            .filter_map(|id| self.inflight.remove(&id))
            .collect();
        out.sort_by_key(|e| e.req.id);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use medsplit_tensor::Tensor;

    fn req(id: u64, tenant: u64, session: u64) -> RoutedRequest {
        RoutedRequest {
            id,
            submit_s: 0.0,
            deadline_s: f64::INFINITY,
            tenant,
            session,
            version: 0,
            activations: Tensor::ones([1, 2]),
        }
    }

    #[test]
    fn quota_limits_inflight_per_tenant() {
        let mut r = Router::new(2, 8, 2, 1);
        assert!(r.try_admit(0));
        assert!(r.try_admit(0));
        assert!(!r.try_admit(0), "third admit exceeds quota 2");
        assert!(r.try_admit(1), "other tenants are unaffected");
        r.record_dispatch(InFlight {
            platform: 0,
            replica: 0,
            attempt: 0,
            req: req(7, 0, 0),
        });
        r.complete(7);
        assert_eq!(r.tenant_inflight[&0], 1);
        assert!(r.try_admit(0), "completion frees a slot");
    }

    #[test]
    fn pins_are_sticky_and_deterministic() {
        let mut a = Router::new(2, 8, 4, 3);
        let mut b = Router::new(5, 8, 4, 3); // different fleet size
        let key = SessionKey {
            tenant: 3,
            session: 9,
        };
        let pin = a.pin_version(key);
        assert!(pin < 3);
        assert_eq!(a.pin_version(key), pin, "pin is sticky");
        assert_eq!(b.pin_version(key), pin, "pin ignores fleet size");
    }

    #[test]
    fn crash_takes_only_the_victims_inflight() {
        let mut r = Router::new(3, 8, 10, 1);
        for id in 0..4u64 {
            assert!(r.try_admit(0));
            r.record_dispatch(InFlight {
                platform: 0,
                replica: (id % 2) as usize,
                attempt: 0,
                req: req(id, 0, id),
            });
        }
        let taken = r.take_inflight_for(0);
        assert_eq!(taken.iter().map(|e| e.req.id).collect::<Vec<_>>(), [0, 2]);
        assert_eq!(r.inflight.len(), 2);
        // Quota slots stay held until the redispatched attempts finish.
        assert_eq!(r.tenant_inflight[&0], 4);
    }
}
