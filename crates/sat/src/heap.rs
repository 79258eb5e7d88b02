//! Indexed max-heap ordered by variable activity (the VSIDS order).

use crate::solver::clone_at_capacity;

/// A binary max-heap over variable indices, keyed by an external activity array.
///
/// Supports the operations CDCL needs: insert, pop-max, membership test, and
/// sift-up after an activity bump. Positions are tracked so updates are `O(log n)`.
#[derive(Debug, Default)]
pub(crate) struct ActivityHeap {
    heap: Vec<u32>,
    /// Position of each variable in `heap`, or `usize::MAX` if absent.
    pos: Vec<usize>,
}

/// Copies both arrays at their capacity, as a solver's copy does.
impl Clone for ActivityHeap {
    fn clone(&self) -> Self {
        ActivityHeap {
            heap: clone_at_capacity(&self.heap),
            pos: clone_at_capacity(&self.pos),
        }
    }
}

const ABSENT: usize = usize::MAX;

impl ActivityHeap {
    pub(crate) fn new() -> Self {
        ActivityHeap {
            heap: Vec::new(),
            pos: Vec::new(),
        }
    }

    /// Ensures the position table can hold `n` variables.
    pub(crate) fn grow_to(&mut self, n: usize) {
        if self.pos.len() < n {
            self.pos.resize(n, ABSENT);
        }
    }

    pub(crate) fn contains(&self, var: usize) -> bool {
        var < self.pos.len() && self.pos[var] != ABSENT
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Inserts `var` (no-op if present).
    pub(crate) fn insert(&mut self, var: usize, activity: &[f64]) {
        self.grow_to(var + 1);
        if self.contains(var) {
            return;
        }
        self.pos[var] = self.heap.len();
        self.heap.push(var as u32);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Removes and returns the variable with maximum activity.
    pub(crate) fn pop_max(&mut self, activity: &[f64]) -> Option<usize> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0] as usize;
        let last = self.heap.pop().expect("non-empty");
        self.pos[top] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }

    /// Restores the heap property around `var` after its activity increased.
    pub(crate) fn bumped(&mut self, var: usize, activity: &[f64]) {
        if self.contains(var) {
            self.sift_up(self.pos[var], activity);
        }
    }

    /// Restores the heap property around `var` after its activity decreased
    /// (used when a recycled variable has its activity reset to zero while
    /// still sitting in the heap).
    pub(crate) fn decreased(&mut self, var: usize, activity: &[f64]) {
        if self.contains(var) {
            self.sift_down(self.pos[var], activity);
        }
    }

    /// Rebuilds the heap from scratch (used after a global activity rescale).
    pub(crate) fn rebuild(&mut self, activity: &[f64]) {
        let vars: Vec<u32> = self.heap.clone();
        for &v in &vars {
            self.pos[v as usize] = ABSENT;
        }
        self.heap.clear();
        for v in vars {
            self.insert(v as usize, activity);
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) >> 1;
            let pv = self.heap[parent];
            if activity[v as usize] <= activity[pv as usize] {
                break;
            }
            self.heap[i] = pv;
            self.pos[pv as usize] = i;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i;
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len()
                && activity[self.heap[right] as usize] > activity[self.heap[left] as usize]
            {
                right
            } else {
                left
            };
            let cv = self.heap[child];
            if activity[cv as usize] <= activity[v as usize] {
                break;
            }
            self.heap[i] = cv;
            self.pos[cv as usize] = i;
            i = child;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_order_follows_activity() {
        let activity = vec![0.5, 3.0, 1.0, 2.0];
        let mut h = ActivityHeap::new();
        for v in 0..4 {
            h.insert(v, &activity);
        }
        assert_eq!(h.len(), 4);
        assert_eq!(h.pop_max(&activity), Some(1));
        assert_eq!(h.pop_max(&activity), Some(3));
        assert_eq!(h.pop_max(&activity), Some(2));
        assert_eq!(h.pop_max(&activity), Some(0));
        assert_eq!(h.pop_max(&activity), None);
        assert!(h.is_empty());
    }

    #[test]
    fn insert_is_idempotent() {
        let activity = vec![1.0, 2.0];
        let mut h = ActivityHeap::new();
        h.insert(0, &activity);
        h.insert(0, &activity);
        assert_eq!(h.len(), 1);
        assert!(h.contains(0));
        assert!(!h.contains(1));
    }

    #[test]
    fn bump_reorders() {
        let mut activity = vec![1.0, 2.0, 3.0];
        let mut h = ActivityHeap::new();
        for v in 0..3 {
            h.insert(v, &activity);
        }
        activity[0] = 10.0;
        h.bumped(0, &activity);
        assert_eq!(h.pop_max(&activity), Some(0));
    }

    #[test]
    fn decreased_restores_order_after_activity_reset() {
        let mut activity = vec![1.0, 2.0, 5.0, 3.0];
        let mut h = ActivityHeap::new();
        for v in 0..4 {
            h.insert(v, &activity);
        }
        // Var 2 sits at the top; resetting its activity must sift it down.
        activity[2] = 0.0;
        h.decreased(2, &activity);
        assert_eq!(h.pop_max(&activity), Some(3));
        assert_eq!(h.pop_max(&activity), Some(1));
        assert_eq!(h.pop_max(&activity), Some(0));
        assert_eq!(h.pop_max(&activity), Some(2));
    }

    #[test]
    fn rebuild_preserves_membership() {
        let mut activity = vec![1.0, 2.0, 3.0, 4.0];
        let mut h = ActivityHeap::new();
        for v in 0..4 {
            h.insert(v, &activity);
        }
        h.pop_max(&activity); // remove var 3
        for a in activity.iter_mut() {
            *a *= 1e-3;
        }
        h.rebuild(&activity);
        assert_eq!(h.len(), 3);
        assert_eq!(h.pop_max(&activity), Some(2));
    }
}
