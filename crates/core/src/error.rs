//! Error type for the GraphZeppelin system.

use std::fmt;

/// Errors surfaced by the GraphZeppelin public API.
#[derive(Debug)]
pub enum GzError {
    /// The sketch-space Boruvka emulation exhausted its round budget while
    /// components were still unresolved — the paper's `algorithm_fails`
    /// outcome, which occurs with probability at most `1/V^c`
    /// (empirically never observed; §6.3).
    AlgorithmFailure {
        /// Rounds executed before giving up.
        rounds_used: usize,
        /// Components still unresolved.
        unresolved: usize,
    },
    /// Configuration rejected (e.g. zero vertices).
    InvalidConfig(String),
    /// Underlying I/O failure from a disk-backed store or gutter tree.
    Io(std::io::Error),
    /// A shard-protocol violation: mismatched parameter digests, a batch
    /// routed to the wrong shard, or an unexpected wire message.
    Protocol(String),
    /// A shard link failed in a classified way — the taxonomy recovery
    /// logic keys on (a timeout or dead peer is retryable; malformed
    /// traffic is not).
    Transport(TransportError),
}

/// What went wrong on a link, coarsely — the axis the coordinator's
/// recovery policy and the front door's accounting branch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportErrorKind {
    /// The peer did not answer within the configured deadline. The peer
    /// may still be alive (e.g. a long flush); retry or reconnect.
    Timeout,
    /// The connection is gone: EOF, reset, broken pipe, refused. The
    /// worker process likely died; reconnect/re-spawn is the only cure.
    PeerGone,
    /// The peer sent bytes that violate the wire protocol. Retrying
    /// cannot help — the build or the stream is corrupt.
    Malformed,
}

impl TransportErrorKind {
    /// Whether reconnect-and-replay can plausibly cure this failure.
    pub fn is_recoverable(self) -> bool {
        matches!(self, TransportErrorKind::Timeout | TransportErrorKind::PeerGone)
    }
}

impl fmt::Display for TransportErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TransportErrorKind::Timeout => "timeout",
            TransportErrorKind::PeerGone => "peer gone",
            TransportErrorKind::Malformed => "malformed",
        })
    }
}

/// A classified link failure: what kind, and the underlying detail. Every
/// framed connection — a coordinator's shard link, a worker's coordinator
/// link, a `gz serve` connection and its client — reports its read and
/// write failures as this one type.
#[derive(Debug)]
pub struct LinkError {
    /// Failure class (see [`TransportErrorKind`]).
    pub kind: TransportErrorKind,
    /// Human-readable detail from the underlying failure.
    pub detail: String,
}

impl LinkError {
    /// Classify a raw I/O error — the one place an `io::ErrorKind` becomes
    /// a link failure class.
    ///
    /// `InvalidData` is what the wire codec returns for protocol
    /// violations; timeouts surface as `TimedOut` (or `WouldBlock` on
    /// platforms where `SO_RCVTIMEO` expiry reports EAGAIN). Everything
    /// else that names a dead connection maps to `PeerGone` — including
    /// `ConnectionRefused`, which is what a not-yet-respawned worker
    /// looks like to a reconnect attempt.
    pub fn from_io(err: &std::io::Error) -> Self {
        use std::io::ErrorKind;
        let kind = match err.kind() {
            ErrorKind::TimedOut | ErrorKind::WouldBlock => TransportErrorKind::Timeout,
            ErrorKind::InvalidData => TransportErrorKind::Malformed,
            _ => TransportErrorKind::PeerGone,
        };
        LinkError { kind, detail: err.to_string() }
    }

    /// A peer that framed its bytes correctly and still broke the protocol.
    pub fn malformed(detail: String) -> Self {
        LinkError { kind: TransportErrorKind::Malformed, detail }
    }

    /// The same failure, on shard `shard`'s link.
    pub fn on_shard(self, shard: u32) -> GzError {
        GzError::Transport(TransportError { shard, kind: self.kind, detail: self.detail })
    }
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.detail, self.kind)
    }
}

/// A [`LinkError`] plus the index of the shard whose link failed.
#[derive(Debug)]
pub struct TransportError {
    /// Shard index whose link failed.
    pub shard: u32,
    /// Failure class (see [`TransportErrorKind`]).
    pub kind: TransportErrorKind,
    /// Human-readable detail from the underlying failure.
    pub detail: String,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard {} link failed ({}): {}", self.shard, self.kind, self.detail)
    }
}

impl fmt::Display for GzError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GzError::AlgorithmFailure { rounds_used, unresolved } => write!(
                f,
                "sketch connectivity failed: {unresolved} unresolved components \
                 after {rounds_used} Boruvka rounds (probability ≤ 1/V^c event)"
            ),
            GzError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            GzError::Io(e) => write!(f, "I/O error: {e}"),
            GzError::Protocol(msg) => write!(f, "shard protocol violation: {msg}"),
            GzError::Transport(e) => write!(f, "shard transport failure: {e}"),
        }
    }
}

impl std::error::Error for GzError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GzError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GzError {
    fn from(e: std::io::Error) -> Self {
        GzError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = GzError::AlgorithmFailure { rounds_used: 12, unresolved: 3 };
        let s = e.to_string();
        assert!(s.contains("12") && s.contains("3"));
        assert!(GzError::InvalidConfig("bad".into()).to_string().contains("bad"));
        assert!(GzError::Protocol("digest".into()).to_string().contains("digest"));
    }

    #[test]
    fn io_conversion_preserves_source() {
        let e: GzError = std::io::Error::other("boom").into();
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn transport_errors_classify_io_kinds() {
        use std::io::{Error, ErrorKind};
        let cases = [
            (ErrorKind::TimedOut, TransportErrorKind::Timeout),
            (ErrorKind::WouldBlock, TransportErrorKind::Timeout),
            (ErrorKind::UnexpectedEof, TransportErrorKind::PeerGone),
            (ErrorKind::ConnectionReset, TransportErrorKind::PeerGone),
            (ErrorKind::ConnectionAborted, TransportErrorKind::PeerGone),
            (ErrorKind::BrokenPipe, TransportErrorKind::PeerGone),
            (ErrorKind::ConnectionRefused, TransportErrorKind::PeerGone),
            (ErrorKind::InvalidData, TransportErrorKind::Malformed),
        ];
        for (io_kind, want) in cases {
            let link = LinkError::from_io(&Error::new(io_kind, "x"));
            assert_eq!(link.kind, want, "{io_kind:?}");
            let GzError::Transport(te) = link.on_shard(3) else { panic!("not a transport error") };
            assert_eq!((te.kind, te.shard, te.detail.as_str()), (want, 3, "x"), "{io_kind:?}");
        }
    }

    #[test]
    fn transport_recoverability_and_display() {
        assert!(TransportErrorKind::Timeout.is_recoverable());
        assert!(TransportErrorKind::PeerGone.is_recoverable());
        assert!(!TransportErrorKind::Malformed.is_recoverable());
        let e = GzError::Transport(TransportError {
            shard: 2,
            kind: TransportErrorKind::PeerGone,
            detail: "broken pipe".into(),
        });
        let s = e.to_string();
        assert!(s.contains("shard 2") && s.contains("peer gone") && s.contains("broken pipe"));
    }
}
