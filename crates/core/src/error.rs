//! Error type for the split-learning protocol.

use std::fmt;

use medsplit_simnet::NetError;
use medsplit_tensor::TensorError;

/// Errors produced while running the split-learning protocol.
#[derive(Debug)]
pub enum SplitError {
    /// A tensor operation failed (shape mismatch, corrupt payload, ...).
    Tensor(TensorError),
    /// The network transport failed (unknown node, shutdown, timeout).
    Net(NetError),
    /// The protocol state machine received an unexpected message.
    Protocol(String),
    /// Invalid configuration (e.g. split index out of range).
    Config(String),
}

impl fmt::Display for SplitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SplitError::Tensor(e) => write!(f, "tensor error: {e}"),
            SplitError::Net(e) => write!(f, "network error: {e}"),
            SplitError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            SplitError::Config(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for SplitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SplitError::Tensor(e) => Some(e),
            SplitError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for SplitError {
    fn from(e: TensorError) -> Self {
        SplitError::Tensor(e)
    }
}

impl From<NetError> for SplitError {
    fn from(e: NetError) -> Self {
        SplitError::Net(e)
    }
}

/// Convenient alias used across the crate.
pub type Result<T> = std::result::Result<T, SplitError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let t: SplitError = TensorError::Corrupt("x".into()).into();
        assert!(t.to_string().contains("tensor error"));
        let n: SplitError = NetError::PeerDown("y".into()).into();
        assert!(n.to_string().contains("network error"));
        assert!(SplitError::Protocol("bad".into()).to_string().contains("bad"));
        assert!(SplitError::Config("oops".into()).to_string().contains("oops"));
    }

    #[test]
    fn source_chains() {
        use std::error::Error;
        let t: SplitError = TensorError::Corrupt("x".into()).into();
        assert!(t.source().is_some());
        assert!(SplitError::Protocol("p".into()).source().is_none());
    }

    #[test]
    fn send_sync() {
        fn assert_ss<T: Send + Sync>() {}
        assert_ss::<SplitError>();
    }
}
