//! The Developer API surface (paper §3.1, Table 1).
//!
//! Applications interact with Omni through [`OmniCtl`], a deferred-call
//! handle whose methods mirror Table 1 exactly: `add_context`,
//! `update_context`, `remove_context`, `send_data`, `request_context` and
//! `request_data`. Calls are queued and applied by the manager after the
//! current callback returns, which lets application callbacks freely invoke
//! the API (the paper's asynchronous-web-API feel) without re-entrancy.
//!
//! Callbacks receive a `&mut OmniCtl` so they can respond by issuing further
//! API calls — the idiomatic Rust rendering of the paper's
//! `status_callback(code, response_info)` pattern.

use bytes::Bytes;
use omni_sim::SimDuration;
use omni_wire::{OmniAddress, ResponseInfo, StatusCode};

/// Parameters of a periodic context transmission ("the frequency with which
/// the application wants to advertise the specified context", paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContextParams {
    /// Transmission interval.
    pub interval: SimDuration,
}

impl Default for ContextParams {
    fn default() -> Self {
        // The paper's systems advertise every 500 ms in the evaluation.
        ContextParams { interval: SimDuration::from_millis(500) }
    }
}

/// `status_callback(code, response_info)` from paper Table 1/2.
pub type StatusCallback = Box<dyn FnMut(StatusCode, &ResponseInfo, &mut OmniCtl)>;

/// `receive_context_callback(source, context)` from paper Table 1.
pub type ContextCallback = Box<dyn FnMut(OmniAddress, &Bytes, &mut OmniCtl)>;

/// `receive_data_callback(source, data)` from paper Table 1.
pub type DataCallback = Box<dyn FnMut(OmniAddress, &Bytes, &mut OmniCtl)>;

/// Application timer callback (token).
pub type TimerCallback = Box<dyn FnMut(u64, &mut OmniCtl)>;

/// Infrastructure download progress callback:
/// `(request, chunk_index, received_bytes, done)`.
pub type InfraCallback = Box<dyn FnMut(u64, u64, u64, bool, &mut OmniCtl)>;

/// A deferred Developer API call.
pub enum ApiCall {
    /// `add_context(params, context, status_callback)`.
    AddContext {
        /// Transmission parameters.
        params: ContextParams,
        /// The context pack.
        context: Bytes,
        /// Status callback.
        status: StatusCallback,
    },
    /// `update_context(id, params, context, status_callback)`.
    UpdateContext {
        /// The context id returned via `ADD_CONTEXT_SUCCESS`.
        id: u64,
        /// New parameters.
        params: ContextParams,
        /// New context pack.
        context: Bytes,
        /// Status callback.
        status: StatusCallback,
    },
    /// `remove_context(id, status_callback)`.
    RemoveContext {
        /// The context id to stop transmitting.
        id: u64,
        /// Status callback.
        status: StatusCallback,
    },
    /// `send_data(destinations, data, status_callback)`. `total_len` is the
    /// logical transfer size; it equals `data.len()` unless the application
    /// streams bulk content it does not materialize (e.g. a 25 MB media
    /// file represented by its descriptor).
    SendData {
        /// The peers to deliver to, by unified address.
        destinations: Vec<OmniAddress>,
        /// Payload (or descriptor of the bulk payload).
        data: Bytes,
        /// Logical transfer size in bytes.
        total_len: u64,
        /// Status callback (invoked once per destination).
        status: StatusCallback,
    },
    /// `request_context(receive_context_callback)`.
    RequestContext(ContextCallback),
    /// `request_data(receive_data_callback)`.
    RequestData(DataCallback),
    /// Registers the application's timer callback.
    RequestTimers(TimerCallback),
    /// Registers the application's infrastructure-download callback.
    RequestInfra(InfraCallback),
    /// Starts an infrastructure download (the mock infrastructure network of
    /// paper §4.3; not a D2D operation, but applications like Disseminate
    /// combine both).
    InfraRequest {
        /// Application-chosen request id.
        req: u64,
        /// Total bytes to download.
        total: u64,
        /// Chunk granularity for progress callbacks.
        chunk: u64,
    },
    /// Cancels an infrastructure download.
    InfraCancel {
        /// The request id to cancel.
        req: u64,
    },
    /// Arms (or re-arms) an application timer.
    SetTimer {
        /// Application-chosen token.
        token: u64,
        /// Delay from now.
        delay: SimDuration,
    },
    /// Cancels an application timer.
    CancelTimer {
        /// The token to cancel.
        token: u64,
    },
}

impl std::fmt::Debug for ApiCall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ApiCall::AddContext { .. } => "AddContext",
            ApiCall::UpdateContext { .. } => "UpdateContext",
            ApiCall::RemoveContext { .. } => "RemoveContext",
            ApiCall::SendData { .. } => "SendData",
            ApiCall::RequestContext(_) => "RequestContext",
            ApiCall::RequestData(_) => "RequestData",
            ApiCall::RequestTimers(_) => "RequestTimers",
            ApiCall::RequestInfra(_) => "RequestInfra",
            ApiCall::InfraRequest { .. } => "InfraRequest",
            ApiCall::InfraCancel { .. } => "InfraCancel",
            ApiCall::SetTimer { .. } => "SetTimer",
            ApiCall::CancelTimer { .. } => "CancelTimer",
        };
        f.write_str(name)
    }
}

/// The application's handle onto the Omni middleware.
///
/// # Example
///
/// ```
/// use bytes::Bytes;
/// use omni_core::{ContextParams, OmniCtl};
///
/// let mut omni = OmniCtl::new();
/// omni.add_context(
///     ContextParams::default(),
///     Bytes::from_static(b"interest:landmark-media"),
///     Box::new(|code, info, _omni| {
///         println!("context request: {code} ({info})");
///     }),
/// );
/// ```
#[derive(Debug, Default)]
pub struct OmniCtl {
    pub(crate) calls: Vec<ApiCall>,
    /// Current virtual time, for applications that timestamp their own
    /// progress (always set when the middleware invokes a callback).
    pub now: omni_sim::SimTime,
}

impl OmniCtl {
    /// Creates an empty call buffer (time pinned to zero; the middleware
    /// uses [`OmniCtl::at`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty call buffer stamped with the current virtual time.
    pub fn at(now: omni_sim::SimTime) -> Self {
        OmniCtl { calls: Vec::new(), now }
    }

    /// Instructs Omni to share `context` periodically according to
    /// `params`; the callback receives the context id (paper Table 1).
    /// A context whose first byte is a manager-reserved tag
    /// ([`crate::relay::CONTEXT_RELAY_TAG`] or
    /// [`crate::relay::PROPHET_SUMMARY_TAG`]) is refused with
    /// `ADD_CONTEXT_FAILURE`.
    pub fn add_context(&mut self, params: ContextParams, context: Bytes, status: StatusCallback) {
        self.calls.push(ApiCall::AddContext { params, context, status });
    }

    /// Changes the parameters, content, or callback of the context pack
    /// identified by `id`. New content starting with a manager-reserved tag
    /// is refused with `UPDATE_CONTEXT_FAILURE`, as in
    /// [`OmniCtl::add_context`].
    pub fn update_context(
        &mut self,
        id: u64,
        params: ContextParams,
        context: Bytes,
        status: StatusCallback,
    ) {
        self.calls.push(ApiCall::UpdateContext { id, params, context, status });
    }

    /// Instructs Omni to cease sharing the context pack identified by `id`.
    pub fn remove_context(&mut self, id: u64, status: StatusCallback) {
        self.calls.push(ApiCall::RemoveContext { id, status });
    }

    /// Instructs Omni to send `data` to the destinations; the callback is
    /// notified of the status per destination.
    pub fn send_data(
        &mut self,
        destinations: Vec<OmniAddress>,
        data: Bytes,
        status: StatusCallback,
    ) {
        let total_len = data.len() as u64;
        self.calls.push(ApiCall::SendData { destinations, data, total_len, status });
    }

    /// Like [`OmniCtl::send_data`] but with an explicit logical size for bulk
    /// content the application does not materialize.
    pub fn send_data_sized(
        &mut self,
        destinations: Vec<OmniAddress>,
        data: Bytes,
        total_len: u64,
        status: StatusCallback,
    ) {
        self.calls.push(ApiCall::SendData { destinations, data, total_len, status });
    }

    /// Registers a callback for context packs Omni receives.
    pub fn request_context(&mut self, callback: ContextCallback) {
        self.calls.push(ApiCall::RequestContext(callback));
    }

    /// Registers a callback for data Omni receives.
    pub fn request_data(&mut self, callback: DataCallback) {
        self.calls.push(ApiCall::RequestData(callback));
    }

    /// Registers the application's timer callback (simulation convenience;
    /// not part of the paper's API).
    pub fn request_timers(&mut self, callback: TimerCallback) {
        self.calls.push(ApiCall::RequestTimers(callback));
    }

    /// Registers the application's infrastructure-download callback.
    pub fn request_infra(&mut self, callback: InfraCallback) {
        self.calls.push(ApiCall::RequestInfra(callback));
    }

    /// Starts an infrastructure download.
    pub fn infra_request(&mut self, req: u64, total: u64, chunk: u64) {
        self.calls.push(ApiCall::InfraRequest { req, total, chunk });
    }

    /// Cancels an infrastructure download.
    pub fn infra_cancel(&mut self, req: u64) {
        self.calls.push(ApiCall::InfraCancel { req });
    }

    /// Arms an application timer (replacing a pending timer with the same
    /// token).
    pub fn set_timer(&mut self, token: u64, delay: SimDuration) {
        self.calls.push(ApiCall::SetTimer { token, delay });
    }

    /// Cancels an application timer.
    pub fn cancel_timer(&mut self, token: u64) {
        self.calls.push(ApiCall::CancelTimer { token });
    }

    /// Number of queued calls (mainly for tests).
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    /// Whether no calls are queued.
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls_queue_in_order() {
        let mut ctl = OmniCtl::new();
        ctl.add_context(ContextParams::default(), Bytes::new(), Box::new(|_, _, _| {}));
        ctl.send_data(vec![OmniAddress::from_u64(1)], Bytes::new(), Box::new(|_, _, _| {}));
        ctl.remove_context(1, Box::new(|_, _, _| {}));
        assert_eq!(ctl.len(), 3);
        assert!(matches!(ctl.calls[0], ApiCall::AddContext { .. }));
        assert!(matches!(ctl.calls[1], ApiCall::SendData { .. }));
        assert!(matches!(ctl.calls[2], ApiCall::RemoveContext { .. }));
    }

    #[test]
    fn send_data_defaults_total_len_to_payload_len() {
        let mut ctl = OmniCtl::new();
        ctl.send_data(vec![], Bytes::from_static(b"12345"), Box::new(|_, _, _| {}));
        match &ctl.calls[0] {
            ApiCall::SendData { total_len, .. } => assert_eq!(*total_len, 5),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sized_send_keeps_the_logical_length() {
        let mut ctl = OmniCtl::new();
        ctl.send_data_sized(
            vec![],
            Bytes::from_static(b"desc"),
            25_000_000,
            Box::new(|_, _, _| {}),
        );
        match &ctl.calls[0] {
            ApiCall::SendData { total_len, data, .. } => {
                assert_eq!(*total_len, 25_000_000);
                assert_eq!(&data[..], b"desc");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn default_params_use_the_papers_500ms() {
        assert_eq!(ContextParams::default().interval, SimDuration::from_millis(500));
    }
}
