//! Status-callback vocabulary (paper Table 2).

use core::fmt;

use serde::{Deserialize, Serialize};

use crate::{OmniAddress, TechType};

/// Response codes delivered to `status_callback(code, response_info)`
/// (paper §3.1, Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(missing_docs)] // variant names mirror paper Table 2 verbatim
pub enum StatusCode {
    AddContextSuccess,
    AddContextFailure,
    UpdateContextSuccess,
    UpdateContextFailure,
    RemoveContextSuccess,
    RemoveContextFailure,
    SendDataSuccess,
    SendDataFailure,
}

impl StatusCode {
    /// Whether this code reports a success.
    pub const fn is_success(self) -> bool {
        matches!(
            self,
            StatusCode::AddContextSuccess
                | StatusCode::UpdateContextSuccess
                | StatusCode::RemoveContextSuccess
                | StatusCode::SendDataSuccess
        )
    }

    /// Whether this code reports a failure.
    pub const fn is_failure(self) -> bool {
        !self.is_success()
    }
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StatusCode::AddContextSuccess => "ADD_CONTEXT_SUCCESS",
            StatusCode::AddContextFailure => "ADD_CONTEXT_FAILURE",
            StatusCode::UpdateContextSuccess => "UPDATE_CONTEXT_SUCCESS",
            StatusCode::UpdateContextFailure => "UPDATE_CONTEXT_FAILURE",
            StatusCode::RemoveContextSuccess => "REMOVE_CONTEXT_SUCCESS",
            StatusCode::RemoveContextFailure => "REMOVE_CONTEXT_FAILURE",
            StatusCode::SendDataSuccess => "SEND_DATA_SUCCESS",
            StatusCode::SendDataFailure => "SEND_DATA_FAILURE",
        };
        f.write_str(s)
    }
}

/// The second status-callback argument: "for errors, `response_info` provides
/// details regarding the error where as for successes it contains the argument
/// passed or an identifier associated with the successful request"
/// (paper §3.1, Table 2).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ResponseInfo {
    /// The reference identifier of a context transmission
    /// (`ADD/UPDATE/REMOVE_CONTEXT_SUCCESS`).
    ContextId(u64),
    /// A failed context operation: description plus, when known, the context
    /// identifier (`*_CONTEXT_FAILURE`).
    ContextFailure {
        /// Human-readable failure description.
        description: String,
        /// The context id, when the failure concerns an existing context.
        context_id: Option<u64>,
    },
    /// The destination a data send succeeded for (`SEND_DATA_SUCCESS`).
    Destination {
        /// The destination the send reached.
        destination: OmniAddress,
        /// The causal trace ID stamped on the transfer (see
        /// [`crate::TraceId`]; zero means untraced).
        trace: u64,
    },
    /// A failed data send: description plus the destination
    /// (`SEND_DATA_FAILURE`).
    SendFailure {
        /// Human-readable failure description.
        description: String,
        /// The destination the send was addressed to.
        destination: OmniAddress,
        /// The causal trace ID stamped on the transfer (zero means untraced).
        trace: u64,
    },
    /// A data send that exhausted its retry budget across every applicable
    /// technology (`SEND_DATA_FAILURE` from the reliable data path).
    SendExhausted {
        /// Human-readable failure description.
        description: String,
        /// The destination the send was addressed to.
        destination: OmniAddress,
        /// Every technology that was attempted before giving up, in first-try
        /// order.
        techs: Vec<TechType>,
        /// The causal trace ID stamped on the transfer (zero means untraced).
        trace: u64,
    },
}

impl ResponseInfo {
    /// Extracts the context id, if this response carries one.
    pub fn context_id(&self) -> Option<u64> {
        match self {
            ResponseInfo::ContextId(id) => Some(*id),
            ResponseInfo::ContextFailure { context_id, .. } => *context_id,
            _ => None,
        }
    }

    /// Extracts the destination, if this response carries one.
    pub fn destination(&self) -> Option<OmniAddress> {
        match self {
            ResponseInfo::Destination { destination, .. }
            | ResponseInfo::SendFailure { destination, .. }
            | ResponseInfo::SendExhausted { destination, .. } => Some(*destination),
            _ => None,
        }
    }

    /// Extracts the causal trace ID, if this response concerns a traced data
    /// send (zero-valued/untraced sends report `None`).
    pub fn trace(&self) -> Option<u64> {
        match self {
            ResponseInfo::Destination { trace, .. }
            | ResponseInfo::SendFailure { trace, .. }
            | ResponseInfo::SendExhausted { trace, .. } => (*trace != 0).then_some(*trace),
            _ => None,
        }
    }
}

impl fmt::Display for ResponseInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResponseInfo::ContextId(id) => write!(f, "context #{id}"),
            ResponseInfo::ContextFailure { description, context_id } => match context_id {
                Some(id) => write!(f, "context #{id}: {description}"),
                None => write!(f, "context: {description}"),
            },
            ResponseInfo::Destination { destination, .. } => {
                write!(f, "destination {destination}")
            }
            ResponseInfo::SendFailure { description, destination, .. } => {
                write!(f, "send to {destination} failed: {description}")
            }
            ResponseInfo::SendExhausted { description, destination, techs, .. } => {
                write!(f, "send to {destination} failed: {description} (exhausted")
                    .and_then(|()| {
                        for t in techs {
                            write!(f, " {t}")?;
                        }
                        Ok(())
                    })
                    .and_then(|()| write!(f, ")"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn success_and_failure_partition_the_codes() {
        let all = [
            StatusCode::AddContextSuccess,
            StatusCode::AddContextFailure,
            StatusCode::UpdateContextSuccess,
            StatusCode::UpdateContextFailure,
            StatusCode::RemoveContextSuccess,
            StatusCode::RemoveContextFailure,
            StatusCode::SendDataSuccess,
            StatusCode::SendDataFailure,
        ];
        assert_eq!(all.iter().filter(|c| c.is_success()).count(), 4);
        for c in all {
            assert_ne!(c.is_success(), c.is_failure());
        }
    }

    #[test]
    fn display_matches_paper_table2_spelling() {
        assert_eq!(StatusCode::AddContextSuccess.to_string(), "ADD_CONTEXT_SUCCESS");
        assert_eq!(StatusCode::SendDataFailure.to_string(), "SEND_DATA_FAILURE");
    }

    #[test]
    fn response_info_accessors() {
        let d = OmniAddress::from_u64(7);
        let ok = ResponseInfo::Destination { destination: d, trace: 0xfeed };
        assert_eq!(ResponseInfo::ContextId(3).context_id(), Some(3));
        assert_eq!(ok.destination(), Some(d));
        assert_eq!(ok.context_id(), None);
        assert_eq!(ok.trace(), Some(0xfeed));
        let fail =
            ResponseInfo::SendFailure { description: "timeout".into(), destination: d, trace: 0 };
        assert_eq!(fail.destination(), Some(d));
        assert_eq!(fail.trace(), None, "zero means untraced");
        let exhausted = ResponseInfo::SendExhausted {
            description: "retry budget spent".into(),
            destination: d,
            techs: vec![TechType::BleBeacon, TechType::WifiTcp],
            trace: 0xbeef,
        };
        assert_eq!(exhausted.destination(), Some(d));
        assert_eq!(exhausted.trace(), Some(0xbeef));
        let cfail =
            ResponseInfo::ContextFailure { description: "no tech".into(), context_id: Some(9) };
        assert_eq!(cfail.context_id(), Some(9));
        assert_eq!(cfail.trace(), None);
    }

    #[test]
    fn response_info_displays_are_nonempty() {
        let d = OmniAddress::from_u64(7);
        for r in [
            ResponseInfo::ContextId(1),
            ResponseInfo::ContextFailure { description: "x".into(), context_id: None },
            ResponseInfo::Destination { destination: d, trace: 1 },
            ResponseInfo::SendFailure { description: "x".into(), destination: d, trace: 1 },
            ResponseInfo::SendExhausted {
                description: "x".into(),
                destination: d,
                techs: vec![TechType::BleBeacon],
                trace: 1,
            },
        ] {
            assert!(!r.to_string().is_empty());
        }
    }

    #[test]
    fn exhausted_display_names_the_techs() {
        let r = ResponseInfo::SendExhausted {
            description: "retry budget spent".into(),
            destination: OmniAddress::from_u64(7),
            techs: vec![TechType::BleBeacon, TechType::WifiTcp],
            trace: 1,
        };
        let s = r.to_string();
        assert!(s.contains("ble-beacon"), "{s}");
        assert!(s.contains("wifi-tcp"), "{s}");
    }
}
