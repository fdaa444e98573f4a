//! Event streams.
//!
//! "Events are sent by event producers (e.g., vehicles) on an input event
//! stream `I`" (Section 2.1). All Sharon executors consume events in
//! non-decreasing timestamp order; [`EventStream`] is the minimal trait for
//! such ordered sources, and [`SortedVecStream`] is the in-memory
//! implementation used by tests and benchmarks.

use crate::batch::EventBatch;
use crate::event::Event;

/// An ordered source of events.
///
/// Implementations must yield events in non-decreasing timestamp order;
/// executors debug-assert this.
pub trait EventStream {
    /// Produce the next event, or `None` at end of stream.
    fn next_event(&mut self) -> Option<Event>;

    /// Append up to `max` events to the columnar batch `out`, returning
    /// how many were produced (0 at end of stream). This is the preferred
    /// ingestion form — the executors' hot paths are columnar — and `out`
    /// is a caller-owned reusable batch, so steady-state ingestion performs
    /// no allocation. Sources that hold columnar data should override this
    /// to avoid materializing row-form events.
    fn next_batch_columnar(&mut self, max: usize, out: &mut EventBatch) -> usize {
        let before = out.len();
        while out.len() - before < max {
            match self.next_event() {
                Some(e) => out.push_event(&e),
                None => break,
            }
        }
        out.len() - before
    }

    /// Drain the stream into a vector (convenience for tests/benches).
    fn collect_events(mut self) -> Vec<Event>
    where
        Self: Sized,
    {
        let mut out = Vec::new();
        while let Some(e) = self.next_event() {
            out.push(e);
        }
        out
    }
}

/// An in-memory stream backed by a vector of events.
///
/// The constructor sorts by timestamp (stably, so the relative order of
/// same-timestamp events is preserved).
#[derive(Debug, Clone)]
pub struct SortedVecStream {
    events: std::vec::IntoIter<Event>,
}

impl SortedVecStream {
    /// Build a stream from events in arbitrary order.
    pub fn new(mut events: Vec<Event>) -> Self {
        events.sort_by_key(|e| e.time);
        SortedVecStream {
            events: events.into_iter(),
        }
    }

    /// Build a stream from events already sorted by time.
    ///
    /// Debug builds verify the ordering.
    pub fn presorted(events: Vec<Event>) -> Self {
        debug_assert!(
            events.windows(2).all(|w| w[0].time <= w[1].time),
            "presorted stream must be ordered by time"
        );
        SortedVecStream {
            events: events.into_iter(),
        }
    }

    /// Number of remaining events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.events.len() == 0
    }
}

impl EventStream for SortedVecStream {
    fn next_event(&mut self) -> Option<Event> {
        self.events.next()
    }
}

impl Iterator for SortedVecStream {
    type Item = Event;
    fn next(&mut self) -> Option<Event> {
        self.next_event()
    }
}

impl<I: Iterator<Item = Event>> EventStream for std::iter::Peekable<I> {
    fn next_event(&mut self) -> Option<Event> {
        self.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::EventTypeId;
    use crate::time::Timestamp;

    fn ev(ty: u32, t: u64) -> Event {
        Event::new(EventTypeId(ty), Timestamp(t))
    }

    #[test]
    fn new_sorts_by_time() {
        let s = SortedVecStream::new(vec![ev(0, 3), ev(1, 1), ev(2, 2)]);
        let times: Vec<u64> = s.map(|e| e.time.millis()).collect();
        assert_eq!(times, vec![1, 2, 3]);
    }

    #[test]
    fn stable_for_ties() {
        let s = SortedVecStream::new(vec![ev(0, 1), ev(1, 1), ev(2, 1)]);
        let tys: Vec<u32> = s.map(|e| e.ty.0).collect();
        assert_eq!(tys, vec![0, 1, 2]);
    }

    #[test]
    fn collect_events_drains() {
        let s = SortedVecStream::presorted(vec![ev(0, 1), ev(0, 2)]);
        assert_eq!(s.len(), 2);
        let all = s.collect_events();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn next_batch_columnar_fills_in_chunks() {
        let mut s = SortedVecStream::presorted((0..5).map(|t| ev(0, t)).collect());
        let mut batch = crate::batch::EventBatch::new();
        assert_eq!(s.next_batch_columnar(3, &mut batch), 3);
        assert_eq!(s.next_batch_columnar(3, &mut batch), 2);
        assert_eq!(s.next_batch_columnar(3, &mut batch), 0);
        assert_eq!(batch.len(), 5);
        assert!(batch.times().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn empty() {
        let s = SortedVecStream::new(vec![]);
        assert!(s.is_empty());
        assert_eq!(s.collect_events().len(), 0);
    }
}
