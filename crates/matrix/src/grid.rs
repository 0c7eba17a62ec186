//! Process grid and 2D block-cyclic distribution.
//!
//! SLATE (like ScaLAPACK) arranges MPI ranks in a `p x q` grid and assigns
//! tile `(i, j)` to rank `(i mod p, j mod q)`. The simulated runtime uses
//! the same map to decide tile ownership, which determines both where each
//! task executes and which tile transfers cross the (simulated) network.

use crate::Tiling;

/// A `p x q` grid of ranks, column-major rank numbering as in ScaLAPACK's
/// default (`rank = pi + pj * p`).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct ProcessGrid {
    p: usize,
    q: usize,
}

impl ProcessGrid {
    /// # Panics
    /// If either dimension is zero.
    pub fn new(p: usize, q: usize) -> Self {
        assert!(p > 0 && q > 0, "process grid dims must be positive");
        Self { p, q }
    }

    /// A single-rank grid (shared-memory run).
    pub fn single() -> Self {
        Self::new(1, 1)
    }

    /// Squarest grid for `nranks` ranks: the factorization `p x q = nranks`
    /// with `p <= q` and `p` maximal, matching common BLACS grid choices.
    pub fn squarest(nranks: usize) -> Self {
        assert!(nranks > 0);
        let mut p = (nranks as f64).sqrt() as usize;
        while p > 1 && !nranks.is_multiple_of(p) {
            p -= 1;
        }
        Self::new(p.max(1), nranks / p.max(1))
    }

    #[inline]
    pub fn p(&self) -> usize {
        self.p
    }

    #[inline]
    pub fn q(&self) -> usize {
        self.q
    }

    #[inline]
    pub fn nranks(&self) -> usize {
        self.p * self.q
    }

    /// Rank id of grid coordinates `(pi, pj)`.
    #[inline]
    pub fn rank_of(&self, pi: usize, pj: usize) -> usize {
        debug_assert!(pi < self.p && pj < self.q);
        pi + pj * self.p
    }

    /// Rank owning tile `(i, j)` under the 2D block-cyclic map.
    #[inline]
    pub fn owner(&self, i: usize, j: usize) -> usize {
        self.rank_of(i % self.p, j % self.q)
    }

    /// Grid coordinates of a rank id.
    #[inline]
    pub fn coords_of(&self, rank: usize) -> (usize, usize) {
        debug_assert!(rank < self.nranks());
        (rank % self.p, rank / self.p)
    }
}

/// 2D block-cyclic tile→rank ownership map over a [`Tiling`].
#[derive(Copy, Clone, Debug)]
pub struct BlockCyclic {
    tiling: Tiling,
    grid: ProcessGrid,
}

impl BlockCyclic {
    pub fn new(tiling: Tiling, grid: ProcessGrid) -> Self {
        Self { tiling, grid }
    }

    #[inline]
    pub fn tiling(&self) -> Tiling {
        self.tiling
    }

    #[inline]
    pub fn grid(&self) -> ProcessGrid {
        self.grid
    }

    /// Owning rank of tile `(i, j)`.
    #[inline]
    pub fn owner(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.tiling.mt() && j < self.tiling.nt());
        self.grid.owner(i, j)
    }

    /// Number of tiles owned by `rank` (load-balance diagnostics).
    pub fn tiles_owned(&self, rank: usize) -> usize {
        let (pi, pj) = self.grid.coords_of(rank);
        let rows = self.tiling.mt().div_ceil(self.grid.p)
            - usize::from(
                !self.tiling.mt().is_multiple_of(self.grid.p)
                    && pi >= self.tiling.mt() % self.grid.p,
            );
        let cols = self.tiling.nt().div_ceil(self.grid.q)
            - usize::from(
                !self.tiling.nt().is_multiple_of(self.grid.q)
                    && pj >= self.tiling.nt() % self.grid.q,
            );
        let rows =
            if self.tiling.mt() < self.grid.p { usize::from(pi < self.tiling.mt()) } else { rows };
        let cols =
            if self.tiling.nt() < self.grid.q { usize::from(pj < self.tiling.nt()) } else { cols };
        rows * cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_rank_roundtrip() {
        let g = ProcessGrid::new(2, 3);
        assert_eq!(g.nranks(), 6);
        for r in 0..6 {
            let (pi, pj) = g.coords_of(r);
            assert_eq!(g.rank_of(pi, pj), r);
        }
    }

    #[test]
    fn squarest_grids() {
        assert_eq!(ProcessGrid::squarest(1), ProcessGrid::new(1, 1));
        assert_eq!(ProcessGrid::squarest(6), ProcessGrid::new(2, 3));
        assert_eq!(ProcessGrid::squarest(16), ProcessGrid::new(4, 4));
        assert_eq!(ProcessGrid::squarest(7), ProcessGrid::new(1, 7));
        assert_eq!(ProcessGrid::squarest(12), ProcessGrid::new(3, 4));
    }

    #[test]
    fn block_cyclic_ownership_pattern() {
        let t = Tiling::new(8, 8, 2, 2); // 4x4 tiles
        let d = BlockCyclic::new(t, ProcessGrid::new(2, 2));
        assert_eq!(d.owner(0, 0), d.owner(2, 2));
        assert_eq!(d.owner(0, 0), d.owner(0, 2));
        assert_ne!(d.owner(0, 0), d.owner(1, 0));
        assert_ne!(d.owner(0, 0), d.owner(0, 1));
    }

    #[test]
    fn ownership_counts_sum_to_total() {
        for (mt, nt, p, q) in [(5, 7, 2, 3), (4, 4, 2, 2), (1, 9, 2, 2), (3, 3, 4, 4)] {
            let t = Tiling::new(mt * 2, nt * 2, 2, 2);
            let d = BlockCyclic::new(t, ProcessGrid::new(p, q));
            let total: usize = (0..p * q).map(|r| d.tiles_owned(r)).sum();
            assert_eq!(total, mt * nt, "mt={mt} nt={nt} p={p} q={q}");
            // cross-check against brute force
            for r in 0..p * q {
                let brute = (0..mt)
                    .flat_map(|i| (0..nt).map(move |j| (i, j)))
                    .filter(|&(i, j)| d.owner(i, j) == r)
                    .count();
                assert_eq!(d.tiles_owned(r), brute, "rank {r}");
            }
        }
    }
}
