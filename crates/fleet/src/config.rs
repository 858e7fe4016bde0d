//! Fleet configuration and validation.

use medsplit_core::SplitError;
use medsplit_serve::ServeConfig;

/// Parameters of a sharded serving fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of server replicas sharing the `L2..Lk` sessions.
    pub replicas: usize,
    /// Virtual nodes per replica on the consistent-hash ring.
    pub vnodes: usize,
    /// Number of tenants (each tenant submits from its own platform).
    pub tenants: usize,
    /// Distinct sessions per tenant; requests round-robin over them.
    pub sessions_per_tenant: usize,
    /// Maximum in-flight admitted requests per tenant; beyond it the
    /// router answers [`Throttled`](medsplit_serve::InferStatus::Throttled)
    /// without dispatching.
    pub tenant_quota: usize,
    /// Number of model weight versions in the bank; each session is
    /// pinned to one at admission and stays on it for its lifetime.
    pub weight_versions: usize,
    /// Per-replica batching/timing parameters (the single-server serving
    /// knobs, applied to every replica). `offered_rps` is per tenant.
    pub serve: ServeConfig,
    /// Simulated seconds per chaos tick: the fleet driver maps the
    /// discrete-event clock onto `FaultPlan` rounds via
    /// `tick = floor(sim_time / chaos_tick_s)`.
    pub chaos_tick_s: f64,
    /// How many times the router re-dispatches a request whose replica
    /// fails mid-flight before giving up with a throttle response.
    pub dispatch_retries: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            replicas: 2,
            vnodes: 32,
            tenants: 3,
            sessions_per_tenant: 4,
            tenant_quota: 64,
            weight_versions: 2,
            serve: ServeConfig::default(),
            chaos_tick_s: 0.050,
            dispatch_retries: 2,
        }
    }
}

impl FleetConfig {
    /// Checks every field, returning a message naming the first invalid
    /// one (the [`medsplit_core::SplitConfig`] convention).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.replicas < 1 {
            return Err(
                "replicas must be at least 1: a fleet needs at least one server replica to route to".into(),
            );
        }
        if self.vnodes < 1 {
            return Err(
                "vnodes must be at least 1: a replica with no ring points can never be routed to".into(),
            );
        }
        if self.tenants < 1 {
            return Err("tenants must be at least 1: an empty fleet run has no traffic to serve".into());
        }
        if self.sessions_per_tenant < 1 {
            return Err("sessions_per_tenant must be at least 1: every request belongs to a session".into());
        }
        if self.tenant_quota < 1 {
            return Err(
                "tenant_quota must be at least 1: a zero quota throttles every request at admission".into(),
            );
        }
        if self.weight_versions < 1 {
            return Err("weight_versions must be at least 1: sessions pin to a version in the bank".into());
        }
        self.serve.validate().map_err(|e| match e {
            SplitError::Config(why) => format!("serve: {why}"),
            other => other.to_string(),
        })?;
        if self.chaos_tick_s.is_nan() || self.chaos_tick_s <= 0.0 {
            return Err("chaos_tick_s must be positive: it maps simulated time onto fault-plan ticks".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(FleetConfig::default().validate(), Ok(()));
    }

    #[test]
    fn zero_replicas_rejected() {
        let cfg = FleetConfig {
            replicas: 0,
            ..FleetConfig::default()
        };
        let msg = cfg.validate().unwrap_err();
        assert!(msg.contains("replicas"), "got: {msg}");
    }

    #[test]
    fn zero_vnodes_rejected() {
        let cfg = FleetConfig {
            vnodes: 0,
            ..FleetConfig::default()
        };
        let msg = cfg.validate().unwrap_err();
        assert!(msg.contains("vnodes"), "got: {msg}");
    }

    #[test]
    fn zero_quota_rejected() {
        let cfg = FleetConfig {
            tenant_quota: 0,
            ..FleetConfig::default()
        };
        let msg = cfg.validate().unwrap_err();
        assert!(msg.contains("tenant_quota"), "got: {msg}");
    }

    #[test]
    fn zero_tenants_rejected() {
        let cfg = FleetConfig {
            tenants: 0,
            ..FleetConfig::default()
        };
        assert!(cfg.validate().unwrap_err().contains("tenants"));
    }

    #[test]
    fn zero_sessions_rejected() {
        let cfg = FleetConfig {
            sessions_per_tenant: 0,
            ..FleetConfig::default()
        };
        assert!(cfg.validate().unwrap_err().contains("sessions_per_tenant"));
    }

    #[test]
    fn zero_versions_rejected() {
        let cfg = FleetConfig {
            weight_versions: 0,
            ..FleetConfig::default()
        };
        assert!(cfg.validate().unwrap_err().contains("weight_versions"));
    }

    #[test]
    fn bad_serve_fields_rejected() {
        let mut cfg = FleetConfig::default();
        cfg.serve.offered_rps = 0.0;
        assert!(cfg.validate().unwrap_err().contains("offered_rps"));
        let mut cfg = FleetConfig::default();
        cfg.serve.max_batch = 0;
        assert!(cfg.validate().unwrap_err().contains("max_batch"));
        let mut cfg = FleetConfig::default();
        cfg.serve.max_wait_s = -1.0;
        assert!(cfg.validate().unwrap_err().contains("max_wait_s"));
        let mut cfg = FleetConfig::default();
        cfg.serve.deadline_s = f64::NAN;
        assert!(cfg.validate().unwrap_err().contains("deadline_s"));
        let mut cfg = FleetConfig::default();
        cfg.serve.per_item_s = -0.5;
        assert!(cfg.validate().unwrap_err().contains("compute costs"));
        // The serve-side checks apply whole: what `serve_threaded` would
        // refuse, a fleet of it refuses too.
        for cost in [f64::INFINITY, f64::NAN] {
            let mut cfg = FleetConfig::default();
            cfg.serve.batch_setup_s = cost;
            assert!(cfg.validate().unwrap_err().contains("compute costs"));
        }
        let mut cfg = FleetConfig::default();
        cfg.serve.offered_rps = f64::INFINITY;
        assert!(cfg.validate().unwrap_err().contains("offered_rps"));
    }

    #[test]
    fn bad_chaos_tick_rejected() {
        let cfg = FleetConfig {
            chaos_tick_s: 0.0,
            ..FleetConfig::default()
        };
        assert!(cfg.validate().unwrap_err().contains("chaos_tick_s"));
        let cfg = FleetConfig {
            chaos_tick_s: f64::NAN,
            ..FleetConfig::default()
        };
        assert!(cfg.validate().unwrap_err().contains("chaos_tick_s"));
    }
}
