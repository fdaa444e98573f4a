//! Result-cell comparison against an independent reference run.
//!
//! A cell is one `(query, group, window start)` key with its aggregate.
//! Each cell is reduced to a 64-bit key hash and a 64-bit value hash
//! (std's `DefaultHasher::new()`, fixed keys: the same within a process);
//! comparing the sorted pairs counts cells the run is missing, cells it
//! has in excess (including a key emitted twice), and cells whose value
//! differs.

use sharon::executor::ExecutorResults;
use sharon::prelude::{GroupKey, QueryId, Timestamp};
use sharon::query::aggregate::AggValue;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Hash of a cell key.
pub fn key_hash(query: QueryId, group: &GroupKey, start: Timestamp) -> u64 {
    let mut h = DefaultHasher::new();
    query.0.hash(&mut h);
    group.hash(&mut h);
    start.millis().hash(&mut h);
    h.finish()
}

/// Hash of a cell value (exact: counts by value, numbers by bit pattern).
pub fn value_hash(v: &AggValue) -> u64 {
    let mut h = DefaultHasher::new();
    match v {
        AggValue::Count(c) => {
            0u8.hash(&mut h);
            c.hash(&mut h);
        }
        AggValue::Number(x) => {
            1u8.hash(&mut h);
            x.map(f64::to_bits).hash(&mut h);
        }
    }
    h.finish()
}

/// Cells as sorted `(key hash, value hash)` pairs.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Cells(Vec<(u64, u64)>);

impl Cells {
    /// Collect every cell of `results` that `keep` accepts.
    pub fn of<'a>(
        results: impl IntoIterator<Item = &'a ExecutorResults>,
        keep: impl Fn(QueryId, Timestamp) -> bool,
    ) -> Self {
        let mut v = Vec::new();
        for r in results {
            for (q, g, w, val) in r.iter() {
                if keep(q, w) {
                    v.push((key_hash(q, g, w), value_hash(val)));
                }
            }
        }
        Self::from_pairs(v)
    }

    /// Cells from raw pairs (any order).
    pub fn from_pairs(mut v: Vec<(u64, u64)>) -> Self {
        v.sort_unstable();
        Cells(v)
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// How a run's cells differ from the reference's.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Diff {
    /// Reference keys the run lacks.
    pub missing: u64,
    /// Run keys the reference lacks, and repeated keys.
    pub extra: u64,
    /// Keys present in both with different values.
    pub differing: u64,
}

impl Diff {
    /// Total failed cells.
    pub fn failed(&self) -> u64 {
        self.missing + self.extra + self.differing
    }
}

/// Compare `got` against the reference `want`.
pub fn diff(want: &Cells, got: &Cells) -> Diff {
    let (w, g) = (&want.0, &got.0);
    let mut d = Diff::default();
    let (mut i, mut j) = (0, 0);
    while i < w.len() || j < g.len() {
        match (w.get(i), g.get(j)) {
            (Some(a), Some(b)) if a.0 == b.0 => {
                if a.1 != b.1 {
                    d.differing += 1;
                }
                i += 1;
                j += 1;
                // a key the reference holds once but the run repeats
                while j < g.len() && g[j].0 == a.0 && (i >= w.len() || w[i].0 != a.0) {
                    d.extra += 1;
                    j += 1;
                }
            }
            (Some(a), Some(b)) if a.0 < b.0 => {
                d.missing += 1;
                i += 1;
            }
            (Some(_), None) => {
                d.missing += 1;
                i += 1;
            }
            _ => {
                d.extra += 1;
                j += 1;
            }
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharon::prelude::Value;

    fn results(cells: &[(u32, i64, u64, u128)]) -> ExecutorResults {
        let mut r = ExecutorResults::new();
        for &(q, car, w, c) in cells {
            r.emit(
                QueryId(q),
                GroupKey::One(Value::Int(car)),
                Timestamp(w),
                AggValue::Count(c),
            );
        }
        r
    }

    fn all(_: QueryId, _: Timestamp) -> bool {
        true
    }

    #[test]
    fn identical_results_do_not_differ() {
        let a = results(&[(0, 1, 0, 5), (0, 2, 0, 3), (1, 1, 6000, 9)]);
        let b = results(&[(1, 1, 6000, 9), (0, 2, 0, 3), (0, 1, 0, 5)]);
        let d = diff(&Cells::of([&a], all), &Cells::of([&b], all));
        assert_eq!(d, Diff::default());
    }

    #[test]
    fn missing_extra_and_differing_cells_are_counted_apart() {
        let want = results(&[(0, 1, 0, 5), (0, 2, 0, 3), (1, 1, 6000, 9)]);
        // (0,2,0) missing, (1,1,6000) differs, (2,7,0) extra
        let got = results(&[(0, 1, 0, 5), (1, 1, 6000, 8), (2, 7, 0, 1)]);
        let d = diff(&Cells::of([&want], all), &Cells::of([&got], all));
        assert_eq!(
            d,
            Diff {
                missing: 1,
                extra: 1,
                differing: 1
            }
        );
        assert_eq!(d.failed(), 3);
        // and symmetrically
        let back = diff(&Cells::of([&got], all), &Cells::of([&want], all));
        assert_eq!((back.missing, back.extra, back.differing), (1, 1, 1));
    }

    #[test]
    fn a_cell_emitted_twice_counts_as_extra() {
        let want = results(&[(0, 1, 0, 5)]);
        let first = results(&[(0, 1, 0, 5)]);
        let again = results(&[(0, 1, 0, 5)]);
        let d = diff(&Cells::of([&want], all), &Cells::of([&first, &again], all));
        assert_eq!(
            d,
            Diff {
                missing: 0,
                extra: 1,
                differing: 0
            }
        );
        // an empty run misses everything
        let none = diff(&Cells::of([&want], all), &Cells::default());
        assert_eq!(none.missing, 1);
    }

    #[test]
    fn keep_filters_by_query_and_window() {
        let r = results(&[(0, 1, 0, 5), (0, 1, 6000, 2), (1, 1, 0, 4)]);
        let cells = Cells::of([&r], |q, w| q == QueryId(0) && w.millis() > 0);
        assert_eq!(cells.len(), 1);
    }
}
