//! Physical placement of devices and the spatial neighbor index.
//!
//! Encounter dynamics (who can hear whom, on which radio) are a function of
//! distance and the per-technology ranges in [`crate::SimConfig`]. Scenarios
//! move devices either instantaneously (teleport, scheduled through the
//! runner) or in per-second walk steps; the DTN experiments only need
//! "in range" / "out of range" phases, which teleports reproduce exactly.
//!
//! # Spatial index
//!
//! Neighbor queries are served by a uniform spatial hash grid: every device
//! lives in exactly one square cell of side [`World::cell_size_m`], keyed by
//! `(floor(x / cell), floor(y / cell))`. A query for radius `r` visits only
//! the cells overlapping the query circle's bounding box, so with the cell
//! size chosen as the *maximum* radio range (see
//! [`crate::SimConfig::max_range_m`]) a per-technology query touches at most
//! a 3×3 cell neighborhood instead of every device in the world. The grid is
//! maintained incrementally: [`World::set_position`] moves a device between
//! cells only when its cell actually changes.
//!
//! Each cell's bucket keeps its BLE scanners first, with a prefix count, so
//! a beacon's recipient query ([`World::scanners_into`]) reads only the
//! scanners of a cell and never touches the (usually far more numerous)
//! devices that only advertise. [`World::set_scanning`] and
//! [`World::set_position`] keep that order.
//!
//! # Determinism rules
//!
//! The simulator promises bit-identical traces for identical seeds, so the
//! index must never let hash-map iteration order leak into results:
//!
//! * cells are visited in sorted `(cx, cy)` order, and candidates are
//!   **sorted by device id** before being returned — exactly the ascending
//!   order the original linear scan produced;
//! * the `HashMap` backing the grid is only ever *probed* by key, never
//!   iterated.
//!
//! The pre-grid linear scan is retained as [`World::neighbors_scan`]: it is
//! the correctness oracle for the equivalence property tests (see
//! `crates/sim/tests/grid_equivalence.rs`) and the baseline the `scale`
//! bench measures the grid against. [`World::set_brute_force`] forces every
//! query through the scan so whole-simulation runs can be compared
//! grid-vs-oracle bit for bit.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

use crate::DeviceId;

/// A fast, deterministic hasher for integer keys (FxHash-style
/// multiply-mix). Cell probes are the grid's per-query constant factor;
/// SipHash (the `HashMap` default) costs more than the whole candidate
/// filter for a typical 3×3 walk. Not DoS-resistant — irrelevant for
/// simulator-internal integer keys — and independent of any per-process
/// hash seed, so runs stay reproducible. Other crates reuse it for their
/// own integer-keyed hot maps (e.g. the manager's peer table).
#[derive(Debug, Default)]
pub struct CellHasher(u64);

impl Hasher for CellHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Integer keys hash through the `write_*` overrides below; this
        // path only serves other key types and is kept correct for them.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    fn finish(&self) -> u64 {
        // Final mix so low bits (the map's bucket index) depend on all key
        // bits — neighboring cells differ in low coordinate bits only.
        let z = self.0;
        z ^ (z >> 32)
    }
}

/// The devices in one grid cell, BLE scanners first: `devs[..scanners]`
/// scan and `devs[scanners..]` do not. Order within each part is arbitrary.
#[derive(Debug, Clone, Default)]
struct Bucket {
    devs: Vec<usize>,
    scanners: usize,
}

impl Bucket {
    fn insert(&mut self, d: usize, scanning: bool) {
        self.devs.push(d);
        if scanning {
            let last = self.devs.len() - 1;
            self.devs.swap(self.scanners, last);
            self.scanners += 1;
        }
    }

    fn remove(&mut self, d: usize) {
        let mut at = self.find(d);
        if at < self.scanners {
            // Move the leaver to the end of the scanner prefix and shrink
            // the prefix over it, so the swap-remove below pulls in a
            // non-scanner.
            self.scanners -= 1;
            self.devs.swap(at, self.scanners);
            at = self.scanners;
        }
        self.devs.swap_remove(at);
    }

    /// Moves `d` across the prefix boundary: to the prefix end when it
    /// starts scanning, out of it when it stops. `d` must change state.
    fn set_scanning(&mut self, d: usize, on: bool) {
        let at = self.find(d);
        if on {
            self.devs.swap(at, self.scanners);
            self.scanners += 1;
        } else {
            self.scanners -= 1;
            self.devs.swap(at, self.scanners);
        }
    }

    fn find(&self, d: usize) -> usize {
        self.devs.iter().position(|&x| x == d).expect("device was in its cell")
    }
}

type CellMap = HashMap<(i64, i64), Bucket, BuildHasherDefault<CellHasher>>;

/// Default grid cell size (meters); matches the maximum radio range
/// ([`crate::WIFI_RANGE_M`]).
pub const DEFAULT_CELL_M: f64 = 100.0;

/// A position in meters on a 2-D plane.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Position {
    /// X coordinate (m).
    pub x: f64,
    /// Y coordinate (m).
    pub y: f64,
}

impl Position {
    /// Builds a position.
    pub const fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to another position.
    pub fn distance(self, other: Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// Device placements, indexed by a uniform spatial hash grid.
#[derive(Debug, Clone)]
pub struct World {
    positions: Vec<Position>,
    /// Per device: whether it is BLE-scanning ([`World::set_scanning`]).
    scanning: Vec<bool>,
    cell_m: f64,
    /// Cell → devices in that cell, scanners first. Probed by key only;
    /// in-cell order is otherwise irrelevant because query results are
    /// sorted (see module docs).
    grid: CellMap,
    /// When set, queries bypass the grid and use the linear-scan oracle.
    brute_force: bool,
}

impl Default for World {
    fn default() -> Self {
        Self::with_cell_size(DEFAULT_CELL_M)
    }
}

impl World {
    /// Creates an empty world with the default cell size.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty world with the given grid cell size in meters.
    /// Choose the maximum radio range so per-technology queries stay within
    /// a 3×3 cell neighborhood.
    ///
    /// # Panics
    ///
    /// Panics if `cell_m` is not strictly positive and finite.
    pub fn with_cell_size(cell_m: f64) -> Self {
        assert!(cell_m > 0.0 && cell_m.is_finite(), "grid cell size must be positive");
        World {
            positions: Vec::new(),
            scanning: Vec::new(),
            cell_m,
            grid: CellMap::default(),
            brute_force: false,
        }
    }

    /// The grid cell size in meters.
    pub fn cell_size_m(&self) -> f64 {
        self.cell_m
    }

    /// Forces (or stops forcing) every neighbor query through the retained
    /// linear-scan oracle instead of the grid. Benches and equivalence tests
    /// use this to compare entire runs against the pre-grid behavior; both
    /// modes return identical results in identical order.
    pub fn set_brute_force(&mut self, on: bool) {
        self.brute_force = on;
    }

    fn cell_of(&self, pos: Position) -> (i64, i64) {
        ((pos.x / self.cell_m).floor() as i64, (pos.y / self.cell_m).floor() as i64)
    }

    /// Adds a non-scanning device at the given position and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if a coordinate is not finite: such a device would land in
    /// an arbitrary cell and be out of range of everything.
    pub fn add_device(&mut self, pos: Position) -> DeviceId {
        let idx = self.positions.len();
        assert_finite(idx, pos);
        self.positions.push(pos);
        self.scanning.push(false);
        self.grid.entry(self.cell_of(pos)).or_default().insert(idx, false);
        DeviceId(idx)
    }

    /// Current position of a device.
    pub fn position(&self, id: DeviceId) -> Position {
        self.positions[id.0]
    }

    /// Moves a device instantaneously, updating its grid cell incrementally.
    ///
    /// # Panics
    ///
    /// Panics if a coordinate is not finite (see [`World::add_device`]).
    pub fn set_position(&mut self, id: DeviceId, pos: Position) {
        assert_finite(id.0, pos);
        let old_cell = self.cell_of(self.positions[id.0]);
        let new_cell = self.cell_of(pos);
        self.positions[id.0] = pos;
        if old_cell != new_cell {
            let bucket = self.grid.get_mut(&old_cell).expect("device was indexed");
            bucket.remove(id.0);
            if bucket.devs.is_empty() {
                self.grid.remove(&old_cell);
            }
            self.grid.entry(new_cell).or_default().insert(id.0, self.scanning[id.0]);
        }
    }

    /// Marks a device as BLE-scanning or not, moving it between its cell's
    /// scanner and non-scanner parts. [`World::scanners_into`] returns only
    /// scanning devices; every other query ignores this state.
    pub fn set_scanning(&mut self, id: DeviceId, on: bool) {
        if self.scanning[id.0] == on {
            return;
        }
        self.scanning[id.0] = on;
        let cell = self.cell_of(self.positions[id.0]);
        self.grid.get_mut(&cell).expect("device was indexed").set_scanning(id.0, on);
    }

    /// Distance between two devices in meters.
    pub fn distance(&self, a: DeviceId, b: DeviceId) -> f64 {
        self.positions[a.0].distance(self.positions[b.0])
    }

    /// The grid cell a device currently occupies, as `(cx, cy)` indices of
    /// [`World::cell_size_m`]-sized squares.  Stable for the lifetime of a
    /// position: telemetry uses it to label per-cell traffic and density.
    pub fn cell_index(&self, id: DeviceId) -> (i64, i64) {
        self.cell_of(self.positions[id.0])
    }

    /// Occupancy per non-empty grid cell, sorted by cell index so iteration
    /// order (and everything derived from it) is deterministic.
    pub fn cell_occupancy(&self) -> Vec<((i64, i64), usize)> {
        let mut cells: Vec<((i64, i64), usize)> =
            self.grid.iter().map(|(&cell, bucket)| (cell, bucket.devs.len())).collect();
        cells.sort_unstable_by_key(|&(cell, _)| cell);
        cells
    }

    /// Whether two distinct devices are within `range_m` of each other.
    /// A device is never in range of itself.
    pub fn in_range(&self, a: DeviceId, b: DeviceId, range_m: f64) -> bool {
        a != b && self.distance(a, b) <= range_m
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the world has no devices.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Collects the ids of devices within `range_m` of `of` (excluding `of`)
    /// into `out`, in ascending id order. `out` is cleared first; reusing one
    /// buffer across calls keeps the broadcast hot path allocation-free.
    pub fn neighbors_into(&self, of: DeviceId, range_m: f64, out: &mut Vec<DeviceId>) {
        out.clear();
        if self.brute_force {
            out.extend(self.neighbors_scan(of, range_m));
            return;
        }
        self.walk_into(of, range_m, false, out);
    }

    /// Like [`World::neighbors_into`], but collects only the devices marked
    /// scanning ([`World::set_scanning`]). The grid walk reads just each
    /// cell's scanner prefix, so a query costs nothing per non-scanner.
    pub fn scanners_into(&self, of: DeviceId, range_m: f64, out: &mut Vec<DeviceId>) {
        out.clear();
        if self.brute_force {
            out.extend(self.neighbors_scan(of, range_m).filter(|d| self.scanning[d.0]));
            return;
        }
        self.walk_into(of, range_m, true, out);
    }

    /// The grid walk behind both queries: every device (or, with
    /// `scanners_only`, every scanner) within `range_m` of `of`.
    fn walk_into(&self, of: DeviceId, range_m: f64, scanners_only: bool, out: &mut Vec<DeviceId>) {
        let p = self.positions[of.0];
        // Cells overlapping the query circle's bounding box. The box is
        // padded by a few ulps' worth of slack: `distance` rounds through
        // two squarings and a square root, so a device whose *computed*
        // distance is exactly `range_m` can have a coordinate offset
        // marginally beyond it — tight bounds would walk one cell short of
        // it while the `<= range_m` predicate below still accepts it. The
        // pad only ever adds empty cell probes, never results (the filter
        // is unchanged). For a negative range the bounds invert and the
        // loops never run (matching the scan, where `distance <= range_m`
        // can never hold).
        let r = range_m + (range_m.abs() * 1e-12 + 1e-12);
        let min_cx = ((p.x - r) / self.cell_m).floor() as i64;
        let max_cx = ((p.x + r) / self.cell_m).floor() as i64;
        let min_cy = ((p.y - r) / self.cell_m).floor() as i64;
        let max_cy = ((p.y + r) / self.cell_m).floor() as i64;
        for cx in min_cx..=max_cx {
            for cy in min_cy..=max_cy {
                let Some(bucket) = self.grid.get(&(cx, cy)) else {
                    continue;
                };
                let devs =
                    if scanners_only { &bucket.devs[..bucket.scanners] } else { &bucket.devs };
                for &d in devs {
                    // Same predicate as `in_range`, so grid and scan agree
                    // bit for bit on every boundary case.
                    if d != of.0 && self.positions[d].distance(p) <= range_m {
                        out.push(DeviceId(d));
                    }
                }
            }
        }
        // In-cell order is arbitrary (swap_remove); restore the scan's
        // ascending-id order so downstream RNG draws and event sequencing
        // are independent of grid history.
        out.sort_unstable();
    }

    /// Iterates over device ids within `range_m` of `of` (excluding `of`),
    /// in ascending id order. Convenience wrapper over
    /// [`World::neighbors_into`]; hot paths should reuse a buffer instead.
    pub fn neighbors(&self, of: DeviceId, range_m: f64) -> impl Iterator<Item = DeviceId> + '_ {
        let mut out = Vec::new();
        self.neighbors_into(of, range_m, &mut out);
        out.into_iter()
    }

    /// The retained brute-force reference implementation: a linear scan over
    /// every device. This is the correctness oracle the grid is proven
    /// equivalent to by property tests, and the baseline the `scale` bench
    /// measures against. O(N) per call — never use it on a hot path.
    pub fn neighbors_scan(
        &self,
        of: DeviceId,
        range_m: f64,
    ) -> impl Iterator<Item = DeviceId> + '_ {
        let n = self.positions.len();
        (0..n).map(DeviceId).filter(move |&d| self.in_range(of, d, range_m))
    }
}

/// Rejects a NaN or infinite coordinate: it would cast to an arbitrary
/// cell, and every distance to it is NaN or infinite, so the device would be
/// silently out of range of every radio.
pub(crate) fn assert_finite(dev: usize, pos: Position) {
    assert!(
        pos.x.is_finite() && pos.y.is_finite(),
        "device {dev}: position ({}, {}) is not finite",
        pos.x,
        pos.y
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(poss: &[(f64, f64)]) -> World {
        let mut w = World::new();
        for &(x, y) in poss {
            w.add_device(Position::new(x, y));
        }
        w
    }

    fn assert_matches_scan(w: &World, range: f64) {
        for d in 0..w.len() {
            let got: Vec<_> = w.neighbors(DeviceId(d), range).collect();
            let want: Vec<_> = w.neighbors_scan(DeviceId(d), range).collect();
            assert_eq!(got, want, "dev {d} range {range}");
        }
    }

    #[test]
    fn distance_is_euclidean() {
        let w = world(&[(0.0, 0.0), (3.0, 4.0)]);
        assert!((w.distance(DeviceId(0), DeviceId(1)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn in_range_respects_radius_inclusively() {
        let w = world(&[(0.0, 0.0), (30.0, 0.0)]);
        assert!(w.in_range(DeviceId(0), DeviceId(1), 30.0));
        assert!(!w.in_range(DeviceId(0), DeviceId(1), 29.999));
    }

    #[test]
    fn never_in_range_of_self() {
        let w = world(&[(0.0, 0.0)]);
        assert!(!w.in_range(DeviceId(0), DeviceId(0), 1000.0));
    }

    #[test]
    fn teleport_changes_neighborhood() {
        let mut w = world(&[(0.0, 0.0), (1000.0, 0.0)]);
        assert_eq!(w.neighbors(DeviceId(0), 50.0).count(), 0);
        w.set_position(DeviceId(1), Position::new(10.0, 0.0));
        let n: Vec<_> = w.neighbors(DeviceId(0), 50.0).collect();
        assert_eq!(n, vec![DeviceId(1)]);
    }

    #[test]
    fn neighbors_excludes_out_of_range() {
        let w = world(&[(0.0, 0.0), (10.0, 0.0), (200.0, 0.0)]);
        let n: Vec<_> = w.neighbors(DeviceId(0), 100.0).collect();
        assert_eq!(n, vec![DeviceId(1)]);
    }

    #[test]
    fn grid_matches_scan_at_exact_range_boundary() {
        // Exactly range_m away, including across a cell boundary (cell 100).
        let w = world(&[(95.0, 0.0), (125.0, 0.0), (65.0, 0.0), (95.0, 30.0)]);
        assert_matches_scan(&w, 30.0);
        let n: Vec<_> = w.neighbors(DeviceId(0), 30.0).collect();
        assert_eq!(n, vec![DeviceId(1), DeviceId(2), DeviceId(3)]);
    }

    #[test]
    fn co_located_devices_see_each_other_at_any_range() {
        let w = world(&[(7.0, -3.0), (7.0, -3.0), (7.0, -3.0)]);
        for r in [0.0, 0.5, 1000.0] {
            assert_matches_scan(&w, r);
            let n: Vec<_> = w.neighbors(DeviceId(1), r).collect();
            assert_eq!(n, vec![DeviceId(0), DeviceId(2)]);
        }
    }

    #[test]
    fn moves_across_cell_boundaries_keep_the_index_consistent() {
        let mut w = World::with_cell_size(10.0);
        for i in 0..8 {
            w.add_device(Position::new(i as f64 * 3.0, 0.0));
        }
        // Drag device 3 through several cells, including negative coords.
        for x in [9.9, 10.0, 10.1, 35.0, -0.1, -25.0, 4.0] {
            w.set_position(DeviceId(3), Position::new(x, 0.0));
            for r in [0.0, 3.0, 9.0, 50.0] {
                assert_matches_scan(&w, r);
            }
        }
    }

    #[test]
    fn negative_range_yields_no_neighbors() {
        let w = world(&[(0.0, 0.0), (0.0, 0.0)]);
        assert_eq!(w.neighbors(DeviceId(0), -1.0).count(), 0);
    }

    #[test]
    fn query_radius_larger_than_cell_size_is_covered() {
        let mut w = World::with_cell_size(5.0);
        for i in 0..20 {
            w.add_device(Position::new(i as f64 * 7.0, (i % 3) as f64 * 40.0));
        }
        for r in [4.0, 5.0, 23.0, 120.0] {
            assert_matches_scan(&w, r);
        }
    }

    #[test]
    fn brute_force_mode_returns_identical_results() {
        let mut w = world(&[(0.0, 0.0), (10.0, 0.0), (200.0, 0.0), (10.0, 0.0)]);
        let grid: Vec<_> = w.neighbors(DeviceId(0), 100.0).collect();
        w.set_brute_force(true);
        let brute: Vec<_> = w.neighbors(DeviceId(0), 100.0).collect();
        assert_eq!(grid, brute);
    }

    /// Every bucket holds exactly its scanners in its `scanners` prefix, and
    /// every device sits once, in the bucket of its cell.
    fn assert_prefix_invariant(w: &World) {
        let mut seen = vec![0; w.len()];
        for (cell, b) in &w.grid {
            assert!(!b.devs.is_empty(), "empty bucket left at {cell:?}");
            for (i, &d) in b.devs.iter().enumerate() {
                assert_eq!(w.scanning[d], i < b.scanners, "cell {cell:?} slot {i} dev {d}");
                assert_eq!(w.cell_index(DeviceId(d)), *cell);
                seen[d] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "device indexed {seen:?} times");
    }

    #[test]
    fn swap_removes_keep_scanners_first() {
        // Cell (0, 0): all four scan; cell (1, 0): none does; cell (2, 0):
        // devices 8 and 10 of 8..=11 scan. Cell size 10 m.
        let layout = |w: &mut World| {
            for i in 0..12 {
                let d = w.add_device(Position::new((i / 4) as f64 * 10.0 + 1.0, (i % 4) as f64));
                if i < 4 || i == 8 || i == 10 {
                    w.set_scanning(d, true);
                }
            }
        };
        let mut probe = World::with_cell_size(10.0);
        layout(&mut probe);
        assert_prefix_invariant(&probe);
        for cell in [(0, 0), (1, 0), (2, 0)] {
            // Move out the device at every slot of the bucket in turn (its
            // first, middle and last entries, scanner or not), then keep
            // emptying the bucket from that point.
            for at in 0..4 {
                let mut w = World::with_cell_size(10.0);
                layout(&mut w);
                let mut order = w.grid[&cell].devs.clone();
                order.rotate_left(at);
                for (k, d) in order.into_iter().enumerate() {
                    let (scanners, len) = (w.grid[&cell].scanners, w.grid[&cell].devs.len());
                    w.set_position(DeviceId(d), Position::new(95.0, 95.0));
                    assert_prefix_invariant(&w);
                    match w.grid.get(&cell) {
                        Some(b) => {
                            assert_eq!(b.devs.len(), len - 1);
                            assert_eq!(b.scanners, scanners - usize::from(w.scanning[d]));
                        }
                        None => assert_eq!(k, 3, "bucket vanished early"),
                    }
                    let mut got = Vec::new();
                    w.scanners_into(DeviceId(0), 200.0, &mut got);
                    let want: Vec<_> =
                        w.neighbors_scan(DeviceId(0), 200.0).filter(|n| w.scanning[n.0]).collect();
                    assert_eq!(got, want);
                }
            }
        }
        // Toggling inside a mixed bucket keeps the prefix too.
        for (d, on) in [(9, true), (8, false), (11, true), (9, false), (10, false), (8, true)] {
            probe.set_scanning(DeviceId(d), on);
            assert_prefix_invariant(&probe);
        }
        // Moving a scanner into a no-scanner bucket puts it first there.
        probe.set_position(DeviceId(0), Position::new(15.0, 0.0));
        assert_prefix_invariant(&probe);
        assert_eq!(probe.grid[&(1, 0)].devs[0], 0);
    }

    #[test]
    #[should_panic(expected = "device 1: position (NaN, 0) is not finite")]
    fn adding_a_device_at_a_nan_position_panics() {
        world(&[(0.0, 0.0), (f64::NAN, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "device 0: position (0, inf) is not finite")]
    fn moving_a_device_to_an_infinite_position_panics() {
        let mut w = world(&[(0.0, 0.0)]);
        w.set_position(DeviceId(0), Position::new(0.0, f64::INFINITY));
    }

    #[test]
    fn neighbors_into_reuses_the_buffer() {
        let w = world(&[(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)]);
        let mut buf = vec![DeviceId(9); 4];
        w.neighbors_into(DeviceId(0), 100.0, &mut buf);
        assert_eq!(buf, vec![DeviceId(1), DeviceId(2)]);
        w.neighbors_into(DeviceId(0), 15.0, &mut buf);
        assert_eq!(buf, vec![DeviceId(1)]);
    }
}
