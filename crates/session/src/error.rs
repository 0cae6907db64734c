//! The structured configuration error every session entry point returns.
//!
//! Before this type existed, a mis-configured pipeline panicked somewhere
//! inside the layer that first noticed — an `assert!` in the engine, the
//! simulator's `validate()`, or an index blow-up in a constructor.  The
//! session builder validates the whole configuration up front and returns
//! one of these instead, so callers can match on what is wrong.

use std::fmt;

/// What was wrong with a session (or spanner-algorithm) configuration.
#[derive(Clone, Debug, PartialEq)]
pub enum RspanError {
    /// A spanner-algorithm parameter is out of range (e.g. `ε ∉ (0, 1]`,
    /// `k = 0`).
    InvalidAlgo {
        /// Human-readable description of the offending parameter.
        reason: String,
    },
    /// The chosen algorithm is a static baseline with no incremental
    /// ([`rspan_domtree::TreeAlgo`]) form, but the session was asked to
    /// maintain it under churn / scheduling.  Build such spanners once with
    /// [`crate::SpannerAlgo::build`] instead.
    AlgoNotIncremental {
        /// The algorithm's stable label.
        algo: String,
    },
    /// The event-simulator configuration is degenerate (zero latency, loss
    /// out of `[0, 1]`, …) — the message comes from
    /// [`rspan_asim::AsimConfig::check`].
    InvalidSim {
        /// Human-readable description of the offending parameter.
        reason: String,
    },
    /// The churn-driving configuration is degenerate (zero churn interval,
    /// crash probability out of `[0, 1]`, …).
    InvalidChurn {
        /// Human-readable description of the offending parameter.
        reason: String,
    },
    /// The Byzantine fault configuration is inconsistent: the quorum
    /// arithmetic needs `n > 3f`, the marked node set must lie inside the
    /// node range with no duplicates, and no more than the tolerated `f`
    /// nodes may be marked — from [`rspan_asim::FaultPlan::check`] or the
    /// [`crate::Broadcast::Reliable`] cross-check.
    InvalidFaults {
        /// Human-readable description of the inconsistency.
        reason: String,
    },
    /// A feature was requested that needs a churn scenario, but none was
    /// configured.
    MissingChurn {
        /// The feature that needs the scenario.
        feature: &'static str,
    },
    /// Two configured options are incompatible (e.g. staleness measurement
    /// without delta routing, `threads(..)` under the async scheduler).
    IncompatibleOptions {
        /// Human-readable description of the clash.
        reason: String,
    },
    /// An operation was invoked on a session whose configuration does not
    /// support it (e.g. [`crate::Session::step`] without a scenario).
    Unsupported {
        /// Human-readable description of the mismatch.
        reason: String,
    },
}

impl fmt::Display for RspanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RspanError::InvalidAlgo { reason } => write!(f, "invalid spanner algorithm: {reason}"),
            RspanError::AlgoNotIncremental { algo } => write!(
                f,
                "algorithm `{algo}` is a static baseline with no incremental form; \
                 build it once with SpannerAlgo::build instead of a Session"
            ),
            RspanError::InvalidSim { reason } => {
                write!(f, "invalid simulator configuration: {reason}")
            }
            RspanError::InvalidChurn { reason } => {
                write!(f, "invalid churn configuration: {reason}")
            }
            RspanError::InvalidFaults { reason } => {
                write!(f, "invalid fault plan: {reason}")
            }
            RspanError::MissingChurn { feature } => {
                write!(
                    f,
                    "{feature} requires a churn scenario (SessionBuilder::churn)"
                )
            }
            RspanError::IncompatibleOptions { reason } => {
                write!(f, "incompatible session options: {reason}")
            }
            RspanError::Unsupported { reason } => write!(f, "unsupported operation: {reason}"),
        }
    }
}

impl std::error::Error for RspanError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = RspanError::InvalidAlgo {
            reason: "ε must lie in (0, 1], got 0".into(),
        };
        assert!(e.to_string().contains("ε must lie in (0, 1]"));
        let e = RspanError::AlgoNotIncremental {
            algo: "baswana_sen_k3".into(),
        };
        assert!(e.to_string().contains("baswana_sen_k3"));
        assert!(std::error::Error::source(&e).is_none());
        let e = RspanError::InvalidFaults {
            reason: "echo quorums need n > 3f (n = 3, f = 1)".into(),
        };
        assert!(e.to_string().starts_with("invalid fault plan:"));
        assert!(e.to_string().contains("n > 3f"));
    }
}
