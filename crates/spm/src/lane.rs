//! Functional SHIFT-lane simulator.
//!
//! [`ShiftArray`](crate::shift::ShiftArray) is the *analytic* cost model;
//! this module is the *functional* counterpart: a ring of word cells with a
//! feedback loop where every operation advances the ring by exactly one
//! position per cycle, and the cycle counter is authoritative. Tests check
//! that the analytic model's costs equal the functional machine's counted
//! cycles.

// lint:allow-file(index, the port only ever reads `cells[self.head]` and advance() keeps head < cells.len() by construction)

use smart_cryomem::tech::MemoryTechnology;
use smart_units::Time;

/// One functional SHIFT lane: a ring buffer with a read/write port at
/// position 0 and a feedback loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShiftLane {
    cells: Vec<u8>,
    /// Logical index of the cell currently at the port.
    head: usize,
    cycles: u64,
}

impl ShiftLane {
    /// Creates a zero-filled lane of `len` word cells.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    #[must_use]
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "lane length must be positive");
        Self {
            cells: vec![0; len],
            head: 0,
            cycles: 0,
        }
    }

    /// Creates a lane holding `data` (element 0 at the port).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    #[must_use]
    pub fn with_data(data: &[u8]) -> Self {
        assert!(!data.is_empty(), "lane must hold at least one word");
        Self {
            cells: data.to_vec(),
            head: 0,
            cycles: 0,
        }
    }

    /// Lane length in words.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Total cycles consumed so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Wall-clock time consumed at the Table 1 SHIFT cycle time.
    #[must_use]
    pub fn elapsed(&self) -> Time {
        MemoryTechnology::Shift.parameters().read_latency * self.cycles as f64
    }

    /// The logical address currently at the port.
    #[must_use]
    pub fn position(&self) -> usize {
        self.head
    }

    /// Reads the word at the port and advances one position (one cycle) —
    /// a sequential streaming read.
    pub fn read_next(&mut self) -> u8 {
        let v = self.cells[self.head];
        self.advance(1);
        v
    }

    /// Writes the word at the port and advances one position (one cycle).
    pub fn write_next(&mut self, value: u8) {
        self.cells[self.head] = value;
        self.advance(1);
    }

    /// Rotates until logical address `addr` is at the port, counting one
    /// cycle per skipped cell — the cost of a random access on a SHIFT
    /// lane.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn seek(&mut self, addr: usize) {
        assert!(addr < self.cells.len(), "address out of range");
        let len = self.cells.len();
        let distance = (addr + len - self.head) % len;
        self.advance(distance);
    }

    /// Random read: seek + read. Returns the value and the cycles the whole
    /// access took.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn read_at(&mut self, addr: usize) -> (u8, u64) {
        let before = self.cycles;
        self.seek(addr);
        let v = self.read_next();
        (v, self.cycles - before)
    }

    fn advance(&mut self, positions: usize) {
        self.head = (self.head + positions) % self.cells.len();
        self.cycles += positions as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shift::ShiftArray;

    #[test]
    fn sequential_stream_costs_one_cycle_per_word() {
        let data: Vec<u8> = (0..100).collect();
        let mut lane = ShiftLane::with_data(&data);
        let mut out = Vec::new();
        for _ in 0..100 {
            out.push(lane.read_next());
        }
        assert_eq!(out, data);
        assert_eq!(lane.cycles(), 100);
    }

    #[test]
    fn ring_wraps_around() {
        let mut lane = ShiftLane::with_data(&[1, 2, 3]);
        for _ in 0..7 {
            lane.read_next();
        }
        assert_eq!(lane.read_next(), 2); // position 7 % 3 = 1
    }

    #[test]
    fn seek_counts_skipped_cells() {
        let mut lane = ShiftLane::new(1000);
        lane.seek(999);
        assert_eq!(lane.cycles(), 999);
        // Already there: free.
        lane.seek(999);
        assert_eq!(lane.cycles(), 999);
        // One forward.
        lane.seek(0);
        assert_eq!(lane.cycles(), 1000);
    }

    #[test]
    fn backwards_access_requires_full_rotation() {
        // The paper's core observation: reaching an *earlier* address means
        // rotating through almost the whole lane.
        let mut lane = ShiftLane::new(4096);
        lane.seek(10);
        let before = lane.cycles();
        lane.seek(9);
        assert_eq!(lane.cycles() - before, 4095);
    }

    #[test]
    fn writes_then_reads_round_trip() {
        let mut lane = ShiftLane::new(16);
        for i in 0..16 {
            lane.write_next(i as u8 * 3);
        }
        // Head is back at 0 after 16 writes.
        assert_eq!(lane.position(), 0);
        for i in 0..16 {
            assert_eq!(lane.read_next(), i as u8 * 3);
        }
    }

    #[test]
    fn functional_cycles_match_analytic_model() {
        // Stream 512 words then realign by 200 bytes on a single-lane
        // array: the analytic ShiftArray must predict the functional
        // machine's cycle count exactly.
        let words = 512u64;
        let distance = 200u64;
        let analytic = ShiftArray::new(1024, 1);
        let predicted = analytic.stream_time(words).as_s() + analytic.rotate_time(distance).as_s();

        let mut lane = ShiftLane::new(1024);
        for _ in 0..words {
            lane.read_next();
        }
        // Realign to an address `distance` ahead of the head.
        let target = (lane.position() + distance as usize) % lane.len();
        lane.seek(target);
        assert!(
            (lane.elapsed().as_s() - predicted).abs() < 1e-15,
            "functional {} ns vs analytic {} ns",
            lane.elapsed().as_ns(),
            predicted * 1e9
        );
    }

    #[test]
    fn random_read_cost_reported() {
        let mut lane = ShiftLane::with_data(&[9; 64]);
        let (v, cost) = lane.read_at(32);
        assert_eq!(v, 9);
        assert_eq!(cost, 33); // 32 skips + 1 read
    }

    #[test]
    #[should_panic(expected = "address out of range")]
    fn seek_oob_panics() {
        let mut lane = ShiftLane::new(8);
        lane.seek(8);
    }
}
