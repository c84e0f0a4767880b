//! An indexed calendar queue: the engine's event queue.
//!
//! A discrete-event simulator's queue workload is extremely structured:
//! almost every push is at or just after the current instant, pops are
//! globally nondecreasing in `(time, seq)`, and bursts of events share
//! one timestamp (simultaneous wakes after a barrier, zero-length
//! yields). A comparator-based binary heap pays `O(log n)` pointer-heavy
//! work for every one of those operations; a calendar queue pays
//! amortized `O(1)`.
//!
//! Layout:
//!
//! - a **service FIFO** holding every pending event with
//!   `time <= fifo_time` (the current service horizon), kept sorted by
//!   `(time, seq)`. Since `seq` is globally monotonic, events scheduled
//!   *for the current instant* — the dominant case — append to the tail
//!   in O(1) and pop from the head in O(1), no comparator at all.
//! - a **calendar** of `2^k` unsorted buckets for events beyond the
//!   horizon. An event at time `t` lives in bucket
//!   `(t >> width_shift) & (buckets - 1)`; a bucket therefore holds one
//!   "day" of each wheel "year". When the FIFO drains, the wheel is
//!   scanned day-by-day from the horizon; the first day with events
//!   yields the minimum timestamp `T`, and *every* event at exactly `T`
//!   is moved into the FIFO in one pass (they all share a bucket, since
//!   bucket index is a pure function of time).
//!
//! The bucket count and width adapt to the population (doubling when
//! buckets get crowded, re-deriving the width from the mean inter-event
//! gap), purely as a function of queue content — scheduling order, and
//! therefore simulation output, is bit-deterministic and identical to a
//! totally-ordered `(time, seq)` heap. Capacity only ratchets up: a
//! workload that repeatedly fills and drains the queue (one collective
//! launch after another) pays its grow rebuilds once, on the first
//! ramp-up, and never again — an eager shrink would tear the wheel down
//! at every drain tail just to rebuild it at the next launch. The cost
//! is a longer empty-day scan while the population is small, which is
//! cheap (an empty `Vec` check per day) and amortized across the events
//! that refill the wheel.

use std::collections::VecDeque;

/// One queued entry: a totally ordered `(time, seq)` key plus payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Entry<T> {
    /// Event time in raw picoseconds.
    pub time: u64,
    /// Global insertion sequence (unique; the tie-breaker).
    pub seq: u64,
    /// The event payload.
    pub payload: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (u64, u64) {
        (self.time, self.seq)
    }
}

const MIN_BUCKETS: usize = 64;
/// Bucket width bounds: 2^6 ps (64 ps) .. 2^42 ps (~4.4 s of virtual
/// time per day). Clamping keeps day indices meaningful for any event
/// the simulator can schedule.
const MIN_SHIFT: u32 = 6;
const MAX_SHIFT: u32 = 42;

#[derive(Debug)]
pub(crate) struct CalendarQueue<T> {
    /// Events with `time <= fifo_time`, sorted ascending by `(time, seq)`.
    fifo: VecDeque<Entry<T>>,
    /// The service horizon: every event at or before it is in the FIFO.
    fifo_time: u64,
    /// Unsorted future buckets (`time > fifo_time`).
    buckets: Vec<Vec<Entry<T>>>,
    /// `log2` of the bucket width in picoseconds.
    width_shift: u32,
    /// Events currently stored in `buckets`.
    in_buckets: usize,
}

impl<T: Copy> Default for CalendarQueue<T> {
    fn default() -> Self {
        CalendarQueue {
            fifo: VecDeque::new(),
            fifo_time: 0,
            buckets: vec![Vec::new(); MIN_BUCKETS],
            width_shift: 12, // ~4 ns: the scale of back-to-back GPU events
            in_buckets: 0,
        }
    }
}

impl<T: Copy> CalendarQueue<T> {
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.fifo.len() + self.in_buckets
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn clear(&mut self) {
        self.fifo.clear();
        for b in &mut self.buckets {
            b.clear();
        }
        self.in_buckets = 0;
    }

    fn bucket_of(&self, time: u64) -> usize {
        ((time >> self.width_shift) as usize) & (self.buckets.len() - 1)
    }

    pub(crate) fn push(&mut self, e: Entry<T>) {
        if e.time <= self.fifo_time {
            // At (or, after a clamp, marginally behind) the service
            // horizon. Monotonic `seq` makes plain append correct except
            // in the rare horizon-lag case, which falls back to a sorted
            // insert.
            match self.fifo.back() {
                Some(last) if last.key() > e.key() => {
                    let pos = self.fifo.partition_point(|x| x.key() < e.key());
                    self.fifo.insert(pos, e);
                }
                _ => self.fifo.push_back(e),
            }
            return;
        }
        let b = self.bucket_of(e.time);
        self.buckets[b].push(e);
        self.in_buckets += 1;
        if self.in_buckets > self.buckets.len() * 2 {
            self.rebuild(self.buckets.len() * 2);
        }
    }

    pub(crate) fn pop(&mut self) -> Option<Entry<T>> {
        if let Some(e) = self.fifo.pop_front() {
            return Some(e);
        }
        if self.in_buckets == 0 {
            return None;
        }
        self.advance_to_next_day();
        self.fifo.pop_front()
    }

    /// Finds the earliest pending timestamp `T` in the calendar and moves
    /// every event at exactly `T` into the FIFO, ordered by `seq`.
    fn advance_to_next_day(&mut self) {
        debug_assert!(self.in_buckets > 0 && self.fifo.is_empty());
        let nb = self.buckets.len() as u64;
        // Start at the horizon's own day: it may still hold events later
        // than `fifo_time` (every bucketed event is strictly beyond the
        // horizon, so nothing already served can be found again).
        let start_day = self.fifo_time >> self.width_shift;
        let mut min: Option<(u64, u64)> = None; // (time, seq)
        let mut min_bucket = 0usize;
        // One wheel revolution starting at the horizon: the first day
        // with events is the global minimum *if* it falls within this
        // year for its bucket.
        for step in 0..nb {
            let day = start_day + step;
            let b = (day as usize) & (self.buckets.len() - 1);
            let day_lo = day << self.width_shift;
            let day_hi = day_lo + (1 << self.width_shift); // exclusive
            for e in &self.buckets[b] {
                if e.time >= day_lo && e.time < day_hi && min.is_none_or(|m| e.key() < m) {
                    min = Some(e.key());
                    min_bucket = b;
                }
            }
            if min.is_some() {
                break;
            }
        }
        if min.is_none() {
            // Nothing within one revolution: the population is sparse and
            // far away (long timeouts). Direct scan for the global min.
            for (b, bucket) in self.buckets.iter().enumerate() {
                for e in bucket {
                    if min.is_none_or(|m| e.key() < m) {
                        min = Some(e.key());
                        min_bucket = b;
                    }
                }
            }
        }
        let (min_time, _) = min.expect("in_buckets > 0 but no event found");
        // Extract every event at exactly `min_time` (all share the bucket)
        // with an order-preserving compaction. Within a bucket, entries at
        // equal times are always in `seq` order: pushes append with a
        // globally monotonic `seq`, rebuilds keep the relative order of
        // same-bucket entries, and this compaction keeps the order of
        // what remains — so the extracted batch needs no sort.
        let bucket = &mut self.buckets[min_bucket];
        let mut kept = 0;
        for i in 0..bucket.len() {
            let e = bucket[i];
            if e.time == min_time {
                self.fifo.push_back(e);
            } else {
                bucket[kept] = e;
                kept += 1;
            }
        }
        bucket.truncate(kept);
        self.in_buckets -= self.fifo.len();
        debug_assert!(
            self.fifo
                .iter()
                .zip(self.fifo.iter().skip(1))
                .all(|(a, b)| a.seq < b.seq),
            "same-day harvest must arrive seq-sorted"
        );
        self.fifo_time = min_time;
    }

    /// Re-buckets the calendar at a new size, re-deriving the bucket
    /// width from the live population's spread so a typical day holds
    /// O(1) events. Pure function of queue content: deterministic.
    fn rebuild(&mut self, new_len: usize) {
        let new_len = new_len.max(MIN_BUCKETS).next_power_of_two();
        let mut all: Vec<Entry<T>> = Vec::with_capacity(self.in_buckets);
        for b in &mut self.buckets {
            all.append(b);
        }
        if !all.is_empty() {
            let lo = self.fifo_time;
            let hi = all.iter().map(|e| e.time).max().unwrap_or(lo);
            let span = hi.saturating_sub(lo).max(1);
            let target = (span / (all.len() as u64 + 1)).max(1);
            // Width = next power of two at or above the mean gap, so that
            // on average about one event lands per day.
            self.width_shift = (64 - target.leading_zeros()).clamp(MIN_SHIFT, MAX_SHIFT);
        }
        self.buckets.resize(new_len, Vec::new());
        if self.buckets.len() > new_len {
            self.buckets.truncate(new_len);
        }
        for e in &all {
            let b = ((e.time >> self.width_shift) as usize) & (new_len - 1);
            self.buckets[b].push(*e);
        }
        self.in_buckets = all.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift for model-based testing (no external RNG).
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::default();
        for (seq, &time) in [50_u64, 10, 10, 9_000_000, 0, 50].iter().enumerate() {
            q.push(Entry {
                time,
                seq: seq as u64,
                payload: (),
            });
        }
        let keys: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop()).map(|e| e.key()).collect();
        assert_eq!(
            keys,
            vec![(0, 4), (10, 1), (10, 2), (50, 0), (50, 5), (9_000_000, 3)]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn same_instant_pushes_during_service_stay_fifo() {
        let mut q = CalendarQueue::default();
        q.push(Entry {
            time: 100,
            seq: 0,
            payload: 'a',
        });
        assert_eq!(q.pop().unwrap().payload, 'a');
        // Events scheduled for the instant being serviced (zero-yields,
        // immediate wakes) must come out in push order.
        for (seq, p) in [(1, 'b'), (2, 'c'), (3, 'd')] {
            q.push(Entry {
                time: 100,
                seq,
                payload: p,
            });
        }
        q.push(Entry {
            time: 101,
            seq: 4,
            payload: 'e',
        });
        let order: Vec<char> = std::iter::from_fn(|| q.pop()).map(|e| e.payload).collect();
        assert_eq!(order, vec!['b', 'c', 'd', 'e']);
    }

    #[test]
    fn clamped_push_behind_horizon_is_served_next() {
        let mut q = CalendarQueue::default();
        q.push(Entry {
            time: 1000,
            seq: 0,
            payload: 0,
        });
        assert!(q.pop().is_some()); // horizon now 1000
        q.push(Entry {
            time: 2000,
            seq: 1,
            payload: 1,
        });
        q.push(Entry {
            time: 999, // behind the horizon (engine clamp edge case)
            seq: 2,
            payload: 2,
        });
        assert_eq!(q.pop().unwrap().payload, 2);
        assert_eq!(q.pop().unwrap().payload, 1);
    }

    #[test]
    fn matches_reference_heap_under_random_workload() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut rng = Rng(0x9E3779B97F4A7C15);
        let mut q = CalendarQueue::default();
        let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut now = 0u64;
        let mut seq = 0u64;
        for round in 0..50_000u64 {
            let r = rng.next();
            if !r.is_multiple_of(3) || model.is_empty() {
                // Push at `now + gap`, with gap spanning 6 orders of
                // magnitude (same-instant .. multi-ms timeouts).
                let magnitude = 10u64.pow((r / 7 % 7) as u32);
                let gap = (r / 11) % magnitude;
                let t = now + gap;
                q.push(Entry {
                    time: t,
                    seq,
                    payload: round,
                });
                model.push(Reverse((t, seq)));
                seq += 1;
            } else {
                let got = q.pop().expect("model nonempty");
                let Reverse(want) = model.pop().unwrap();
                assert_eq!(got.key(), want, "divergence at round {round}");
                now = got.time;
            }
        }
        while let Some(got) = q.pop() {
            let Reverse(want) = model.pop().unwrap();
            assert_eq!(got.key(), want);
        }
        assert!(model.is_empty());
    }

    #[test]
    fn survives_burst_resize_and_sparse_far_future() {
        let mut q = CalendarQueue::default();
        // Burst: thousands of events in a tight window (forces growth).
        for seq in 0..5000u64 {
            q.push(Entry {
                time: 1_000 + seq % 97,
                seq,
                payload: (),
            });
        }
        // Plus a handful of far-future timeouts (forces the revolution
        // fallback and later a shrink).
        for seq in 5000..5004u64 {
            q.push(Entry {
                time: 40_000_000_000 + seq, // 40 ms away
                seq,
                payload: (),
            });
        }
        let mut last = (0u64, 0u64);
        let mut n = 0;
        while let Some(e) = q.pop() {
            assert!(e.key() >= last, "order violated: {:?} < {last:?}", e.key());
            last = e.key();
            n += 1;
        }
        assert_eq!(n, 5004);
    }

    #[test]
    fn clear_empties_everything() {
        let mut q = CalendarQueue::default();
        for seq in 0..100 {
            q.push(Entry {
                time: seq * 1000,
                seq,
                payload: (),
            });
        }
        q.pop();
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }
}
