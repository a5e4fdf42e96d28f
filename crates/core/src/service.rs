//! Server-side service dispatch.
//!
//! In Hadoop, an RPC server hosts one or more *protocols* (Java
//! interfaces); a call names its protocol and method, and the server
//! reflects into the registered instance. Here a protocol is an
//! [`RpcService`] implementation dispatching on the method name, and a
//! [`ServiceRegistry`] maps protocol names to services.

use std::collections::HashMap;
use std::sync::Arc;

use wire::{DataInput, Writable};

use crate::error::{RpcError, RpcResult};
use crate::sched::{CallPoll, HandlerCx};

/// A protocol implementation hosted by a server.
pub trait RpcService: Send + Sync {
    /// The protocol name clients address this service by
    /// (e.g. `"hdfs.ClientProtocol"`).
    fn protocol(&self) -> &'static str;

    /// Invoke `method`, deserializing its parameter from `param`.
    /// Returns the response value, or an error string that the client will
    /// surface as [`RpcError::Remote`].
    fn call(
        &self,
        method: &str,
        param: &mut dyn DataInput,
    ) -> Result<Box<dyn Writable + Send>, String>;

    /// Poll `method`: what the server actually invokes, once per poll of
    /// the call. A service that can suspend overrides it: it records a
    /// yield/park request on `cx` (or nothing, meaning "park until my
    /// [`WakeHandle`](crate::sched::WakeHandle) fires"), keeps per-call
    /// state in [`HandlerCx::stash`], and returns [`CallPoll::Pending`];
    /// the worker moves on and the call is polled again after the wake
    /// with `cx.polls()` advanced. `param` is re-presented from the
    /// start of the parameter bytes on every poll.
    ///
    /// The default completes on the first poll via [`RpcService::call`];
    /// such a call is never more than a function call on its worker.
    fn call_mn(&self, method: &str, param: &mut dyn DataInput, cx: &mut HandlerCx<'_>) -> CallPoll {
        let _ = cx;
        CallPoll::Ready(self.call(method, param))
    }
}

/// Immutable-after-build set of services, shared across handler threads.
#[derive(Clone, Default)]
pub struct ServiceRegistry {
    services: HashMap<&'static str, Arc<dyn RpcService>>,
}

impl ServiceRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a service under its protocol name. Panics on duplicates —
    /// that is always a wiring bug.
    pub fn register(&mut self, service: Arc<dyn RpcService>) {
        let name = service.protocol();
        let previous = self.services.insert(name, service);
        assert!(
            previous.is_none(),
            "duplicate protocol registration: {name}"
        );
    }

    /// Dispatch one poll of a call: `None` while the service suspends it
    /// ([`CallPoll::Pending`]), else its result. An unknown protocol is
    /// a result too.
    pub fn dispatch(
        &self,
        protocol: &str,
        method: &str,
        param: &mut dyn DataInput,
        cx: &mut HandlerCx<'_>,
    ) -> Option<RpcResult<Box<dyn Writable + Send>>> {
        let Some(service) = self.services.get(protocol) else {
            return Some(Err(RpcError::UnknownProtocol(protocol.to_owned())));
        };
        match service.call_mn(method, param, cx) {
            CallPoll::Ready(result) => Some(result.map_err(RpcError::Remote)),
            CallPoll::Pending => None,
        }
    }

    /// Registered protocol names (diagnostics).
    pub fn protocols(&self) -> Vec<&'static str> {
        let mut names: Vec<_> = self.services.keys().copied().collect();
        names.sort_unstable();
        names
    }
}

impl std::fmt::Debug for ServiceRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceRegistry")
            .field("protocols", &self.protocols())
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use wire::{BytesWritable, DataInput, IntWritable, NullWritable};

    /// The paper's microbenchmark service: `pingpong` echoes a
    /// `BytesWritable` payload.
    pub struct EchoService;

    impl RpcService for EchoService {
        fn protocol(&self) -> &'static str {
            "test.EchoProtocol"
        }

        fn call(
            &self,
            method: &str,
            param: &mut dyn DataInput,
        ) -> Result<Box<dyn Writable + Send>, String> {
            match method {
                "pingpong" => {
                    let mut payload = BytesWritable::default();
                    payload.read_fields(param).map_err(|e| e.to_string())?;
                    Ok(Box::new(payload))
                }
                "add" => {
                    let mut a = IntWritable::default();
                    let mut b = IntWritable::default();
                    a.read_fields(param).map_err(|e| e.to_string())?;
                    b.read_fields(param).map_err(|e| e.to_string())?;
                    Ok(Box::new(IntWritable(a.0 + b.0)))
                }
                "boom" => Err("deliberate failure".to_owned()),
                "nothing" => {
                    let mut n = NullWritable;
                    n.read_fields(param).map_err(|e| e.to_string())?;
                    Ok(Box::new(NullWritable))
                }
                other => Err(format!("no such method: {other}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::EchoService;
    use super::*;
    use crate::metrics::ShardStats;
    use crate::sched::{Sched, Step};
    use wire::{to_bytes, IntWritable};

    /// One first poll through `dispatch`, the way a server worker makes
    /// it; no test service suspends.
    fn dispatch(
        registry: &ServiceRegistry,
        protocol: &'static str,
        method: &'static str,
        param: Vec<u8>,
    ) -> RpcResult<Box<dyn Writable + Send>> {
        let sched = Sched::new(1, vec![Arc::new(ShardStats::default())]);
        let (tx, rx) = std::sync::mpsc::channel();
        let registry = registry.clone();
        sched.run_first(0, 0, move |cx| {
            let mut stash = None;
            let mut hcx = HandlerCx::new(cx, &mut stash);
            let polled = registry.dispatch(protocol, method, &mut param.as_slice(), &mut hcx);
            tx.send(polled).expect("receiver alive");
            Step::Done
        });
        rx.recv().expect("polled once").expect("completed")
    }

    #[test]
    fn dispatch_routes_by_protocol_and_method() {
        let mut registry = ServiceRegistry::new();
        registry.register(Arc::new(EchoService));
        let mut param = Vec::new();
        param.extend(to_bytes(&IntWritable(2)).unwrap());
        param.extend(to_bytes(&IntWritable(40)).unwrap());
        let result = dispatch(&registry, "test.EchoProtocol", "add", param).unwrap();
        assert_eq!(
            to_bytes(result.as_ref()).unwrap(),
            to_bytes(&IntWritable(42)).unwrap()
        );
    }

    #[test]
    fn unknown_protocol_is_an_error() {
        let err = dispatch(&ServiceRegistry::new(), "nope", "m", Vec::new())
            .err()
            .unwrap();
        assert!(matches!(err, RpcError::UnknownProtocol(_)));
    }

    #[test]
    fn app_errors_become_remote() {
        let mut registry = ServiceRegistry::new();
        registry.register(Arc::new(EchoService));
        let err = dispatch(&registry, "test.EchoProtocol", "boom", Vec::new())
            .err()
            .unwrap();
        assert_eq!(err, RpcError::Remote("deliberate failure".into()));
    }

    #[test]
    #[should_panic(expected = "duplicate protocol")]
    fn duplicate_registration_panics() {
        let mut registry = ServiceRegistry::new();
        registry.register(Arc::new(EchoService));
        registry.register(Arc::new(EchoService));
    }
}
