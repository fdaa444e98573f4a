//! Result latency as defined in the paper's §8.1: the time a result is
//! output minus the arrival of the latest event it depends on.
//!
//! The paced phase releases event `i` (in arrival order) at its due time
//! `i / rate` after the pass starts. A result cell `(query, group, window
//! start w)` depends on the window `[w, w + WITHIN)`, so its latency is
//! the drain that returned it minus the due time of the last event, in
//! arrival order, whose timestamp lies inside that window. Attributing to
//! the due time — not to when the driver actually handed the event over —
//! charges a stall to every event queued behind it.

use sharon::prelude::{Timestamp, WindowSpec};

/// For one window spec: the arrival index of the last event inside each
/// slide-aligned window instance of a stream.
pub struct LastInWindow {
    slide_ms: u64,
    /// Indexed by `start / slide`; `u32::MAX` marks an empty window.
    last: Vec<u32>,
}

impl LastInWindow {
    /// Scan `times` (arrival order, any disorder) once per window the
    /// event falls in.
    pub fn new(times: &[Timestamp], spec: WindowSpec) -> Self {
        let slide_ms = spec.slide.millis();
        let max_t = times.iter().map(|t| t.millis()).max().unwrap_or(0);
        let mut last = vec![u32::MAX; (max_t / slide_ms + 1) as usize];
        for (i, &t) in times.iter().enumerate() {
            let first = spec.first_start_covering(t).millis() / slide_ms;
            let latest = spec.last_start_covering(t).millis() / slide_ms;
            for k in first..=latest {
                // arrival order: a later index always wins
                last[k as usize] = i as u32;
            }
        }
        LastInWindow { slide_ms, last }
    }

    /// Arrival index of the last event inside the window starting at
    /// `start`, or `None` when no event falls in it.
    pub fn last_index(&self, start: Timestamp) -> Option<usize> {
        let k = (start.millis() / self.slide_ms) as usize;
        match self.last.get(k) {
            Some(&i) if i != u32::MAX => Some(i as usize),
            _ => None,
        }
    }
}

/// Due time, in milliseconds after the paced pass starts, of the event
/// at arrival index `i` under `rate` events per second.
pub fn due_ms(i: usize, rate: f64) -> f64 {
    i as f64 * 1000.0 / rate
}

/// Latency in milliseconds of a cell drained `drained_ms` after the pass
/// started, for the window starting at `start`.
pub fn cell_latency_ms(
    table: &LastInWindow,
    start: Timestamp,
    drained_ms: f64,
    rate: f64,
) -> Option<f64> {
    table
        .last_index(start)
        .map(|i| drained_ms - due_ms(i, rate))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharon::prelude::TimeDelta;

    fn ts(v: &[u64]) -> Vec<Timestamp> {
        v.iter().map(|&t| Timestamp(t)).collect()
    }

    #[test]
    fn window_latency_counts_from_the_last_in_window_event() {
        // WITHIN 10 SLIDE 5: windows [0,10), [5,15), [10,20), …
        let spec = WindowSpec::new(TimeDelta::from_millis(10), TimeDelta::from_millis(5));
        let table = LastInWindow::new(&ts(&[1, 4, 7, 9, 12, 16]), spec);
        assert_eq!(table.last_index(Timestamp(0)), Some(3)); // t=9
        assert_eq!(table.last_index(Timestamp(5)), Some(4)); // t=12
        assert_eq!(table.last_index(Timestamp(10)), Some(5)); // t=16
        assert_eq!(table.last_index(Timestamp(15)), Some(5));
        assert_eq!(table.last_index(Timestamp(40)), None);
        // 1000 events/s: event 3 is due at 3 ms; a drain at 7.5 ms is
        // 4.5 ms after it, however late the driver ran
        let rate = 1000.0;
        assert_eq!(cell_latency_ms(&table, Timestamp(0), 7.5, rate), Some(4.5));
        assert_eq!(cell_latency_ms(&table, Timestamp(5), 7.5, rate), Some(3.5));
    }

    #[test]
    fn disorder_attributes_to_the_latest_arrival_not_the_latest_timestamp() {
        let spec = WindowSpec::new(TimeDelta::from_millis(10), TimeDelta::from_millis(10));
        // t=3 arrives last (index 3) although t=8 is the window's latest
        let table = LastInWindow::new(&ts(&[2, 8, 11, 3, 14]), spec);
        assert_eq!(table.last_index(Timestamp(0)), Some(3));
        assert_eq!(table.last_index(Timestamp(10)), Some(4));
        assert_eq!(due_ms(3, 500.0), 6.0);
    }

    #[test]
    fn empty_windows_have_no_last_event() {
        let spec = WindowSpec::new(TimeDelta::from_millis(10), TimeDelta::from_millis(10));
        let table = LastInWindow::new(&ts(&[1, 35]), spec);
        assert_eq!(table.last_index(Timestamp(10)), None);
        assert_eq!(table.last_index(Timestamp(20)), None);
        assert_eq!(table.last_index(Timestamp(30)), Some(1));
    }
}
