//! The responder's call table: `call_ID` → handler, mirroring the SDK's
//! ocall-table indexing the paper reuses for HotCalls.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::error::{HotCallError, Result};

/// A table of request handlers indexed by call id.
pub struct CallTable<Req, Resp> {
    handlers: Vec<Box<dyn Fn(Req) -> Resp + Send + Sync>>,
}

impl<Req, Resp> core::fmt::Debug for CallTable<Req, Resp> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CallTable")
            .field("handlers", &self.handlers.len())
            .finish()
    }
}

impl<Req, Resp> Default for CallTable<Req, Resp> {
    fn default() -> Self {
        Self::new()
    }
}

impl<Req, Resp> CallTable<Req, Resp> {
    /// Creates an empty table.
    pub fn new() -> Self {
        CallTable {
            handlers: Vec::new(),
        }
    }

    /// Registers a handler and returns its call id.
    pub fn register<F>(&mut self, handler: F) -> u32
    where
        F: Fn(Req) -> Resp + Send + Sync + 'static,
    {
        self.handlers.push(Box::new(handler));
        (self.handlers.len() - 1) as u32
    }

    /// Number of registered handlers.
    pub fn len(&self) -> usize {
        self.handlers.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.handlers.is_empty()
    }

    /// Dispatches a request; `None` for unknown ids.
    pub fn dispatch(&self, id: u32, req: Req) -> Option<Resp> {
        self.handlers.get(id as usize).map(|h| h(req))
    }

    /// Dispatches a request on behalf of a transport: an unknown id is
    /// [`HotCallError::UnknownCallId`], and a handler that panics is
    /// [`HotCallError::HandlerPanicked`] instead of an unwound (dead)
    /// responder and a caller left waiting on a call that never ends.
    pub(crate) fn invoke(&self, id: u32, req: Req) -> Result<Resp> {
        // The handler is `Fn` and owns nothing the caller observes after a
        // panic, so asserting unwind safety cannot expose broken state.
        match catch_unwind(AssertUnwindSafe(|| self.dispatch(id, req))) {
            Ok(Some(resp)) => Ok(resp),
            Ok(None) => Err(HotCallError::UnknownCallId(id)),
            Err(_) => Err(HotCallError::HandlerPanicked),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_assigns_sequential_ids() {
        let mut t: CallTable<u64, u64> = CallTable::new();
        let a = t.register(|x| x + 1);
        let b = t.register(|x| x * 2);
        assert_eq!((a, b), (0, 1));
        assert_eq!(t.dispatch(a, 5), Some(6));
        assert_eq!(t.dispatch(b, 5), Some(10));
        assert_eq!(t.dispatch(9, 5), None);
        assert_eq!(t.len(), 2);
    }
}
