//! Property tests proving the spatial hash grid equivalent to the retained
//! brute-force neighbor scan (`World::neighbors_scan`), the oracle.
//!
//! The grid is the simulator's scaling tentpole; its correctness story is
//! *proved* here, not asserted by inspection: for random device layouts,
//! query ranges, grid cell sizes, and `set_position` sequences, the grid
//! must return exactly the same neighbor set, in the same (ascending-id)
//! order, as the linear scan — including boundary cases at exactly
//! `range_m`, co-located devices, and devices dragged across cell
//! boundaries.
//!
//! The layouts are scaled to keep each query's cell walk bounded (a 0.15 m
//! cell under a kilometer-wide query visits millions of empty cells — valid
//! but pointless to sweep 256 times); the NFC-scale regime gets its own
//! small-world generator below instead.
//!
//! The scanner index (`World::scanners_into`, the grid's scanners-first
//! buckets) is held to the same oracle filtered by scan state, both on a
//! bare `World` and through a `Runner` whose stacks toggle scanning and BLE
//! power while devices move.

use std::cell::RefCell;
use std::rc::Rc;

use omni_sim::{
    Command, DeviceCaps, DeviceId, NodeApi, NodeEvent, Position, Runner, SimConfig, SimDuration,
    Stack, World,
};
use omni_wire::TechType;
use proptest::prelude::*;

/// Positions on a half-meter lattice so exact-distance boundary cases
/// (`distance == range_m`) actually occur instead of being measure-zero.
fn lattice_pos() -> impl Strategy<Value = Position> {
    (-96i32..=96, -96i32..=96)
        .prop_map(|(x, y)| Position::new(f64::from(x) * 0.5, f64::from(y) * 0.5))
}

/// NFC-scale positions: a 5-cm lattice inside a ±2 m square, so the
/// 0.15 m touch-range cell size sees multi-device buckets and boundary
/// hits.
fn touch_pos() -> impl Strategy<Value = Position> {
    (-40i32..=40, -40i32..=40)
        .prop_map(|(x, y)| Position::new(f64::from(x) * 0.05, f64::from(y) * 0.05))
}

/// Asserts grid == oracle for every device at each given range, plus the
/// exact pairwise distance from the device to a probe peer (the inclusive
/// `<= range_m` boundary) and a hair under it.
fn assert_equivalent(w: &World, ranges: &[f64]) {
    for d in 0..w.len() {
        let of = DeviceId(d);
        let probe = DeviceId((d + 1) % w.len());
        let exact = w.distance(of, probe);
        let mut all = ranges.to_vec();
        all.push(exact);
        all.push((exact - 1e-9).max(0.0));
        for &r in &all {
            let got: Vec<DeviceId> = w.neighbors(of, r).collect();
            let want: Vec<DeviceId> = w.neighbors_scan(of, r).collect();
            assert_eq!(
                got,
                want,
                "dev {} range {} cell {}: grid and scan disagree",
                d,
                r,
                w.cell_size_m()
            );
            // Determinism rule: results are strictly ascending by id.
            assert!(got.windows(2).all(|p| p[0] < p[1]), "unsorted result for dev {d}");
        }
    }
}

/// Asserts that `scanners_into` is the oracle filtered by `scanning` and
/// that `neighbors_into` is the oracle itself whatever the scan state.
fn assert_scanner_index(w: &World, scanning: &dyn Fn(DeviceId) -> bool, ranges: &[f64]) {
    let mut buf = Vec::new();
    for d in 0..w.len() {
        let of = DeviceId(d);
        for &r in ranges {
            let all: Vec<DeviceId> = w.neighbors_scan(of, r).collect();
            let want: Vec<DeviceId> = all.iter().copied().filter(|&n| scanning(n)).collect();
            w.scanners_into(of, r, &mut buf);
            assert_eq!(buf, want, "dev {d} range {r}: scanner index disagrees");
            w.neighbors_into(of, r, &mut buf);
            assert_eq!(buf, all, "dev {d} range {r}: neighbors depend on scan state");
        }
    }
}

/// One step of a scanner-index scenario on a bare `World`.
#[derive(Debug, Clone)]
enum WorldOp {
    Scan(prop::sample::Index, bool),
    Move(prop::sample::Index, Position),
    /// Move the first device onto the second one's position.
    CoLocate(prop::sample::Index, prop::sample::Index),
}

fn world_op() -> impl Strategy<Value = WorldOp> {
    (any::<prop::sample::Index>(), any::<prop::sample::Index>(), 0u8..4, lattice_pos()).prop_map(
        |(a, b, kind, pos)| match kind {
            0 => WorldOp::Scan(a, true),
            1 => WorldOp::Scan(a, false),
            2 => WorldOp::Move(a, pos),
            _ => WorldOp::CoLocate(a, b),
        },
    )
}

/// A stack that applies the commands the test queues for its device, one
/// batch per millisecond timer.
struct Commander(Rc<RefCell<Vec<Command>>>);

impl Stack for Commander {
    fn on_event(&mut self, event: NodeEvent, api: &mut NodeApi<'_>) {
        if matches!(event, NodeEvent::Start | NodeEvent::Timer { .. }) {
            for c in self.0.borrow_mut().drain(..) {
                api.push(c);
            }
            api.set_timer(0, SimDuration::from_millis(1));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Oracle equivalence over random layouts, cell sizes, ranges, and
    /// `set_position` sequences. Every device is checked after the initial
    /// placement and after every single move, so cross-cell migrations and
    /// stale-index bugs cannot hide between checkpoints.
    #[test]
    fn grid_neighbors_match_brute_force_oracle(
        initial in proptest::collection::vec(lattice_pos(), 2..32),
        moves in proptest::collection::vec(
            (any::<prop::sample::Index>(), lattice_pos()),
            0..24
        ),
        ranges in proptest::collection::vec(0.0f64..120.0, 1..4),
        cell_m in prop_oneof![Just(30.0), Just(100.0), 5.0f64..150.0],
    ) {
        let mut w = World::with_cell_size(cell_m);
        for &p in &initial {
            w.add_device(p);
        }
        // Force a co-located pair: device N shadows device 0 exactly.
        w.add_device(initial[0]);
        assert_equivalent(&w, &ranges);
        for (idx, to) in moves {
            let dev = DeviceId(idx.index(w.len()));
            w.set_position(dev, to);
            assert_equivalent(&w, &ranges);
        }
    }

    /// The NFC regime: cell size 0.15 m (a touch range used as the cell
    /// size when every radio is short-range), centimeter layouts, query
    /// radii both under and far over the cell size.
    #[test]
    fn touch_range_cells_match_brute_force_oracle(
        initial in proptest::collection::vec(touch_pos(), 2..10),
        moves in proptest::collection::vec(
            (any::<prop::sample::Index>(), touch_pos()),
            0..6
        ),
    ) {
        let mut w = World::with_cell_size(0.15);
        for &p in &initial {
            w.add_device(p);
        }
        w.add_device(initial[0]);
        let ranges = [0.0, 0.15, 0.30, 1.0];
        assert_equivalent(&w, &ranges);
        for (idx, to) in moves {
            let dev = DeviceId(idx.index(w.len()));
            w.set_position(dev, to);
            assert_equivalent(&w, &ranges);
        }
    }

    /// A device teleported far away and back lands in exactly the neighbor
    /// sets the oracle predicts at every hop — the grid's incremental
    /// remove/insert path never loses or duplicates a device.
    #[test]
    fn round_trip_moves_preserve_the_index(
        home in lattice_pos(),
        away in lattice_pos(),
        others in proptest::collection::vec(lattice_pos(), 1..16),
        range in 0.0f64..120.0,
    ) {
        let mut w = World::new();
        let mover = w.add_device(home);
        for &p in &others {
            w.add_device(p);
        }
        for hop in [away, home, away, home] {
            w.set_position(mover, hop);
            let got: Vec<DeviceId> = w.neighbors(mover, range).collect();
            let want: Vec<DeviceId> = w.neighbors_scan(mover, range).collect();
            assert_eq!(got, want);
            // The reverse direction must agree too (symmetry of in_range).
            for d in 0..w.len() {
                let g: Vec<DeviceId> = w.neighbors(DeviceId(d), range).collect();
                let s: Vec<DeviceId> = w.neighbors_scan(DeviceId(d), range).collect();
                assert_eq!(g, s);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The scanners-first buckets against the oracle filtered by a model
    /// of who scans, through scan toggles (off repeats what a BLE power-off
    /// does to the index), cross-cell moves and co-located devices, on
    /// several cell sizes; checked after every step.
    #[test]
    fn scanner_index_matches_the_filtered_oracle(
        initial in proptest::collection::vec(lattice_pos(), 2..24),
        ops in proptest::collection::vec(world_op(), 0..32),
        ranges in proptest::collection::vec(0.0f64..120.0, 1..3),
        cell_m in prop_oneof![Just(30.0), Just(100.0), 5.0f64..150.0],
    ) {
        let mut w = World::with_cell_size(cell_m);
        for &p in &initial {
            w.add_device(p);
        }
        w.add_device(initial[0]);
        let mut scanning = vec![false; w.len()];
        assert_scanner_index(&w, &|d| scanning[d.0], &ranges);
        for op in ops {
            match op {
                WorldOp::Scan(i, on) => {
                    let d = i.index(w.len());
                    w.set_scanning(DeviceId(d), on);
                    scanning[d] = on;
                }
                WorldOp::Move(i, to) => w.set_position(DeviceId(i.index(w.len())), to),
                WorldOp::CoLocate(i, j) => {
                    let to = w.position(DeviceId(j.index(w.len())));
                    w.set_position(DeviceId(i.index(w.len())), to);
                }
            }
            assert_scanner_index(&w, &|d| scanning[d.0], &ranges);
        }
    }

    /// The runner keeps the index in step with its own radio state:
    /// `BleSetScan`, `BlePower` off and on, teleports (onto other devices
    /// too), and devices without BLE whose commands are ignored. The oracle
    /// filters by `Runner::ble_scanning`.
    #[test]
    fn runner_scan_and_power_changes_keep_the_scanner_index(
        initial in proptest::collection::vec((lattice_pos(), 0u8..3), 2..16),
        ops in proptest::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>(), 0u8..6, lattice_pos()),
            0..24
        ),
    ) {
        let mut sim = Runner::new(SimConfig::default());
        let mut inboxes = Vec::new();
        for &(p, caps) in &initial {
            let caps = match caps {
                0 => DeviceCaps::PI,
                1 => DeviceCaps::BEACON,
                _ => DeviceCaps { ble: false, wifi: true, nfc: true },
            };
            let dev = sim.add_device(caps, p);
            let inbox = Rc::new(RefCell::new(Vec::new()));
            sim.set_stack(dev, Box::new(Commander(inbox.clone())));
            inboxes.push(inbox);
        }
        let ranges = [sim.config().range_m(TechType::BleBeacon), 0.0, 100.0];
        sim.run_for(SimDuration::from_millis(2));
        for (a, b, kind, pos) in ops {
            let d = a.index(inboxes.len());
            let cmd = match kind {
                0 => Some(Command::BleSetScan { duty: Some(1.0) }),
                1 => Some(Command::BleSetScan { duty: Some(0.25) }),
                2 => Some(Command::BleSetScan { duty: None }),
                3 => Some(Command::BlePower(false)),
                4 => Some(Command::BlePower(true)),
                _ => None,
            };
            match cmd {
                Some(c) => inboxes[d].borrow_mut().push(c),
                None => {
                    let to = if b.index(2) == 0 {
                        pos
                    } else {
                        sim.world().position(DeviceId(b.index(inboxes.len())))
                    };
                    sim.schedule_teleport(DeviceId(d), sim.now(), to);
                }
            }
            sim.run_for(SimDuration::from_millis(2));
            assert_scanner_index(sim.world(), &|n| sim.ble_scanning(n), &ranges);
        }
    }
}
