//! Compressed sparse adjacency over a dense point set.
//!
//! The solver's graphs are walked on every solve, so their representation
//! is on the hot path. A `Vec<Vec<usize>>` pays one heap allocation per
//! point and scatters neighbor lists across the heap — on an XL point set
//! (10⁴–10⁵ points) the build alone costs tens of milliseconds and every
//! traversal pointer-chases cold cache lines. [`Adjacency`] stores the
//! same lists in compressed sparse row form: one flat `targets` array plus
//! one offset per point. Builds are appends, traversals are contiguous
//! slice scans, and the whole structure is two allocations regardless of
//! point count.

use std::ops::Index;

/// Neighbor lists of a dense point set in compressed sparse row form.
///
/// Point `p`'s neighbors are `targets[offsets[p]..offsets[p+1]]`, in the
/// order they were appended — the same order the equivalent
/// `Vec<Vec<usize>>` would hold them. Build one with [`from_lists`]
/// (tests, small graphs) or append points in index order with
/// [`start_point`]/[`push_neighbor`].
///
/// [`from_lists`]: Adjacency::from_lists
/// [`start_point`]: Adjacency::start_point
/// [`push_neighbor`]: Adjacency::push_neighbor
///
/// # Examples
///
/// ```
/// use am_dfa::Adjacency;
///
/// let adj = Adjacency::from_lists(&[vec![1, 2], vec![2], vec![]]);
/// assert_eq!(adj.len(), 3);
/// assert_eq!(adj.neighbors(0), &[1, 2]);
/// assert_eq!(&adj[1], &[2]);
/// assert!(adj.neighbors(2).is_empty());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Adjacency {
    /// `offsets[p]..offsets[p+1]` delimits point `p`'s neighbors; length
    /// is always point count + 1.
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Default for Adjacency {
    fn default() -> Self {
        Self::new()
    }
}

impl Adjacency {
    /// An adjacency with no points.
    pub fn new() -> Self {
        Adjacency {
            offsets: vec![0],
            targets: Vec::new(),
        }
    }

    /// Builds from per-point neighbor lists, preserving list order.
    pub fn from_lists(lists: &[Vec<usize>]) -> Self {
        let mut adj = Adjacency::new();
        adj.offsets.reserve(lists.len());
        adj.targets.reserve(lists.iter().map(Vec::len).sum());
        for list in lists {
            adj.start_point();
            for &q in list {
                adj.push_neighbor(q as u32);
            }
        }
        adj
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the point set is empty.
    pub fn is_empty(&self) -> bool {
        self.offsets.len() == 1
    }

    /// Total number of recorded neighbor entries (edges).
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// The neighbors of `p` in append order.
    pub fn neighbors(&self, p: usize) -> &[u32] {
        &self.targets[self.offsets[p] as usize..self.offsets[p + 1] as usize]
    }

    /// Number of neighbors of `p`.
    pub fn degree(&self, p: usize) -> usize {
        (self.offsets[p + 1] - self.offsets[p]) as usize
    }

    /// Reserves room for `points` further points and `edges` further
    /// neighbor entries.
    pub fn reserve(&mut self, points: usize, edges: usize) {
        self.offsets.reserve(points);
        self.targets.reserve(edges);
    }

    /// Opens the next point (index = current [`len`](Self::len)); its
    /// neighbors are whatever is [pushed](Self::push_neighbor) before the
    /// next `start_point`. Points must be appended in index order.
    pub fn start_point(&mut self) {
        let end = u32::try_from(self.targets.len()).expect("too many edges");
        self.offsets.push(end);
    }

    /// Appends `q` to the most recently started point's neighbors.
    ///
    /// # Panics
    ///
    /// Panics if no point was started.
    pub fn push_neighbor(&mut self, q: u32) {
        assert!(self.offsets.len() > 1, "no point started");
        self.targets.push(q);
        *self.offsets.last_mut().expect("non-empty offsets") += 1;
    }
}

impl Index<usize> for Adjacency {
    type Output = [u32];

    fn index(&self, p: usize) -> &[u32] {
        self.neighbors(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_building_matches_from_lists() {
        let lists = vec![vec![3, 1], vec![], vec![0, 2, 3], vec![1]];
        let from_lists = Adjacency::from_lists(&lists);
        let mut appended = Adjacency::new();
        for list in &lists {
            appended.start_point();
            for &q in list {
                appended.push_neighbor(q as u32);
            }
        }
        assert_eq!(appended, from_lists);
        assert_eq!(appended.len(), 4);
        assert_eq!(appended.edge_count(), 6);
        for (p, list) in lists.iter().enumerate() {
            let expect: Vec<u32> = list.iter().map(|&q| q as u32).collect();
            assert_eq!(appended.neighbors(p), expect.as_slice());
            assert_eq!(appended.degree(p), list.len());
        }
    }

    #[test]
    fn empty_points_have_no_neighbors() {
        let adj = Adjacency::from_lists(&[vec![], vec![]]);
        assert_eq!(adj.len(), 2);
        assert!(adj.neighbors(0).is_empty());
        assert_eq!(adj.degree(1), 0);
    }
}
