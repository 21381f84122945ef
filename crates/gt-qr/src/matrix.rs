//! Module matrix: function patterns, data placement order, masking, and
//! the penalty score that picks the mask, taken on bit-packed rows.

use crate::tables::{alignment_positions, symbol_size, MAX_VERSION};

/// Side of the largest symbol in modules: a row or column fits a `u64`.
const MAX_SIZE: usize = 17 + 4 * MAX_VERSION as usize;
const _: () = assert!(MAX_SIZE <= 64);

/// Every mask pattern repeats down the rows and across the columns with
/// a period that divides 12.
const MASK_PERIOD: usize = 12;

/// `MASK_ROWS[k][r % 12]`: the modules of row `r` that mask `k` flips,
/// bit `c` for column `c`.
static MASK_ROWS: [[u64; MASK_PERIOD]; 8] = mask_words(false);

/// `MASK_COLS[k][c % 12]`: the modules of column `c` that mask `k`
/// flips, bit `r` for row `r`.
static MASK_COLS: [[u64; MASK_PERIOD]; 8] = mask_words(true);

const fn mask_words(transpose: bool) -> [[u64; MASK_PERIOD]; 8] {
    let mut words = [[0; MASK_PERIOD]; 8];
    let mut k = 0;
    while k < 8 {
        let mut i = 0;
        while i < MASK_PERIOD {
            let mut j = 0;
            while j < 64 {
                let (r, c) = if transpose { (j, i) } else { (i, j) };
                if mask_bit(k as u8, r, c) {
                    words[k][i] |= 1 << j;
                }
                j += 1;
            }
            i += 1;
        }
        k += 1;
    }
    words
}

/// A square module matrix. `true` = dark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix {
    size: usize,
    modules: Vec<bool>,
    /// Marks function-pattern cells (finder, timing, alignment, format,
    /// version, dark module) that carry no data codeword bits.
    function: Vec<bool>,
}

impl Matrix {
    /// An all-light matrix for `version` with function-pattern areas
    /// marked (and the fixed patterns drawn).
    pub fn for_version(version: u8) -> Self {
        let size = symbol_size(version);
        let mut m = Matrix {
            size,
            modules: vec![false; size * size],
            function: vec![false; size * size],
        };
        m.draw_function_patterns(version);
        m
    }

    /// An empty matrix of raw modules (used by the decoder after
    /// sampling a frame). Function map is rebuilt from the version.
    pub fn from_modules(size: usize, modules: Vec<bool>) -> Option<Self> {
        if modules.len() != size * size {
            return None;
        }
        let version = crate::tables::version_for_size(size)?;
        let mut m = Matrix {
            size,
            modules,
            function: vec![false; size * size],
        };
        // Re-mark function areas without overwriting sampled modules.
        let mut template = Matrix::for_version(version);
        std::mem::swap(&mut m.function, &mut template.function);
        Some(m)
    }

    pub fn size(&self) -> usize {
        self.size
    }

    pub fn get(&self, row: usize, col: usize) -> bool {
        self.modules[row * self.size + col]
    }

    pub fn set(&mut self, row: usize, col: usize, dark: bool) {
        self.modules[row * self.size + col] = dark;
    }

    pub fn is_function(&self, row: usize, col: usize) -> bool {
        self.function[row * self.size + col]
    }

    fn set_function(&mut self, row: usize, col: usize, dark: bool) {
        self.set(row, col, dark);
        self.function[row * self.size + col] = true;
    }

    /// Fraction of dark modules (penalty rule 4 and tests).
    pub fn dark_fraction(&self) -> f64 {
        self.modules.iter().filter(|&&m| m).count() as f64 / self.modules.len() as f64
    }

    fn draw_function_patterns(&mut self, version: u8) {
        let size = self.size;
        // Finder patterns + separators at three corners.
        self.draw_finder(0, 0);
        self.draw_finder(0, size - 7);
        self.draw_finder(size - 7, 0);
        // Separators (1-module light border inside the symbol).
        for i in 0..8 {
            self.set_function(7, i, false);
            self.set_function(i, 7, false);
            self.set_function(7, size - 8 + i, false);
            self.set_function(i, size - 8, false);
            self.set_function(size - 8, i, false);
            self.set_function(size - 8 + i, 7, false);
        }
        // Timing patterns.
        for i in 8..size - 8 {
            let dark = i % 2 == 0;
            self.set_function(6, i, dark);
            self.set_function(i, 6, dark);
        }
        // Alignment patterns (skip any overlapping a finder).
        let centers = alignment_positions(version);
        for &r in centers {
            for &c in centers {
                let near_finder = (r < 9 && (c < 9 || c > size - 10)) || (r > size - 10 && c < 9);
                if near_finder {
                    continue;
                }
                self.draw_alignment(r, c);
            }
        }
        // Dark module.
        self.set_function(size - 8, 8, true);
        // Reserve format info areas (filled in later by the encoder).
        for (r, c) in format_positions_copy1() {
            self.function[r * size + c] = true;
        }
        for (r, c) in format_positions_copy2(size) {
            self.function[r * size + c] = true;
        }
        // Reserve version info areas (v >= 7).
        if version >= 7 {
            for i in 0..18 {
                let a = i / 3;
                let b = size - 11 + i % 3;
                self.function[a * size + b] = true;
                self.function[b * size + a] = true;
            }
        }
    }

    fn draw_finder(&mut self, top: usize, left: usize) {
        for dr in 0..7 {
            for dc in 0..7 {
                let on_ring = dr == 0 || dr == 6 || dc == 0 || dc == 6;
                let in_core = (2..=4).contains(&dr) && (2..=4).contains(&dc);
                self.set_function(top + dr, left + dc, on_ring || in_core);
            }
        }
    }

    fn draw_alignment(&mut self, center_r: usize, center_c: usize) {
        for dr in 0..5 {
            for dc in 0..5 {
                let ring = dr == 0 || dr == 4 || dc == 0 || dc == 4;
                let core = dr == 2 && dc == 2;
                self.set_function(center_r - 2 + dr, center_c - 2 + dc, ring || core);
            }
        }
    }

    /// The zigzag order in which data bits occupy non-function modules.
    /// Shared by encoder and decoder so placement and extraction always
    /// agree.
    pub fn data_order(&self) -> Vec<(usize, usize)> {
        let size = self.size;
        let mut order = Vec::with_capacity(size * size);
        let mut col = size as isize - 1;
        let mut upward = true;
        while col > 0 {
            if col == 6 {
                col -= 1; // the vertical timing pattern column is skipped entirely
            }
            for i in 0..size {
                let row = if upward { size - 1 - i } else { i };
                for c in [col, col - 1] {
                    let c = c as usize;
                    if !self.is_function(row, c) {
                        order.push((row, c));
                    }
                }
            }
            upward = !upward;
            col -= 2;
        }
        order
    }

    /// Apply (or remove — XOR is an involution) mask `mask` to all
    /// non-function modules.
    pub fn apply_mask(&mut self, mask: u8) {
        let flips = &MASK_ROWS[mask as usize];
        for row in 0..self.size {
            let flip = flips[row % MASK_PERIOD];
            for col in 0..self.size {
                let i = row * self.size + col;
                self.modules[i] ^= !self.function[i] & (flip >> col & 1 == 1);
            }
        }
    }

    /// The modules and the non-function map packed one `u64` per row and
    /// per column, to score the masks on.
    pub(crate) fn packed(&self) -> Packed {
        let mut p = Packed {
            size: self.size,
            rows: [0; MAX_SIZE],
            cols: [0; MAX_SIZE],
            free_rows: [0; MAX_SIZE],
            free_cols: [0; MAX_SIZE],
        };
        for r in 0..self.size {
            for c in 0..self.size {
                let i = r * self.size + c;
                let (dark, free) = (u64::from(self.modules[i]), u64::from(!self.function[i]));
                p.rows[r] |= dark << c;
                p.cols[c] |= dark << r;
                p.free_rows[r] |= free << c;
                p.free_cols[c] |= free << r;
            }
        }
        p
    }
}

/// A matrix packed for mask selection: bit `j` of `rows[i]` is module
/// `(i, j)` and bit `j` of `cols[i]` is module `(j, i)`; the `free_*`
/// words mark the non-function modules, the ones a mask flips.
pub(crate) struct Packed {
    size: usize,
    rows: [u64; MAX_SIZE],
    cols: [u64; MAX_SIZE],
    free_rows: [u64; MAX_SIZE],
    free_cols: [u64; MAX_SIZE],
}

/// Rule 3's finder-like line, 1011101 then four light modules: bit `k`
/// is the `k`-th module.
const FINDER_LINE: u16 = 0b000_0101_1101;
/// The same line reversed: four light modules, then 1011101.
const FINDER_LINE_REV: u16 = 0b101_1101_0000;

impl Packed {
    /// The standard penalty of the symbol with mask `mask` applied and
    /// the format word `format` written, scored without branching on
    /// module values. Lower is better.
    pub(crate) fn penalty(&self, mask: u8, format: u16) -> u32 {
        let n = self.size;
        let (flip_rows, flip_cols) = (&MASK_ROWS[mask as usize], &MASK_COLS[mask as usize]);
        let mut rows = [0u64; MAX_SIZE];
        let mut cols = [0u64; MAX_SIZE];
        for i in 0..n {
            rows[i] = self.rows[i] ^ (flip_rows[i % MASK_PERIOD] & self.free_rows[i]);
            cols[i] = self.cols[i] ^ (flip_cols[i % MASK_PERIOD] & self.free_cols[i]);
        }
        let copies = format_positions_copy1()
            .into_iter()
            .zip(format_positions_copy2(n));
        for (i, (p1, p2)) in copies.enumerate() {
            let bit = u64::from(format >> (14 - i) & 1);
            for (r, c) in [p1, p2] {
                rows[r] = rows[r] & !(1 << c) | bit << c;
                cols[c] = cols[c] & !(1 << r) | bit << r;
            }
        }
        let (rows, cols) = (&rows[..n], &cols[..n]);

        let mut score = 0;
        for &line in rows.iter().chain(cols) {
            score += run_penalty(line, n)
                + 40 * (count_line(line, FINDER_LINE, n) + count_line(line, FINDER_LINE_REV, n));
        }
        // Rule 2: 2x2 blocks of the same colour.
        for pair in rows.windows(2) {
            let same_down = !(pair[0] ^ pair[1]);
            let same_right = !(pair[0] ^ pair[0] >> 1);
            score += 3 * (same_down & same_down >> 1 & same_right & low_bits(n - 1)).count_ones();
        }
        // Rule 4: dark-module balance.
        let dark: u32 = rows.iter().map(|w| w.count_ones()).sum();
        let dark_pct = (f64::from(dark) / (n * n) as f64 * 100.0).round() as i32;
        score + ((dark_pct - 50).abs() / 5) as u32 * 10
    }
}

/// The low `k` bits set.
fn low_bits(k: usize) -> u64 {
    (1 << k) - 1
}

/// Rule 1 on a line of `n` modules: a run of `L >= 5` same-colour
/// modules scores `3 + (L - 5)`. It holds `L - 4` uniform 5-wide
/// windows, so the line scores one per such window plus two per window
/// that starts a run.
fn run_penalty(line: u64, n: usize) -> u32 {
    // Bit j: modules j and j + 1 match.
    let same = !(line ^ line >> 1) & low_bits(n - 1);
    // Bit j: modules j to j + 4 match.
    let windows = same & same >> 1 & same >> 2 & same >> 3;
    windows.count_ones() + 2 * (windows & !(windows << 1)).count_ones()
}

/// How many 11-module windows of a line of `n` modules equal `pattern`
/// (bit `k` the window's `k`-th module).
fn count_line(line: u64, pattern: u16, n: usize) -> u32 {
    let mut hits = low_bits(n - 10);
    for k in 0..11 {
        let want = 0u64.wrapping_sub(u64::from(pattern >> k & 1));
        hits &= !(line >> k ^ want);
    }
    hits.count_ones()
}

/// Mask predicate: whether (row, col) flips under mask `mask`.
pub const fn mask_bit(mask: u8, r: usize, c: usize) -> bool {
    match mask {
        0 => (r + c).is_multiple_of(2),
        1 => r.is_multiple_of(2),
        2 => c.is_multiple_of(3),
        3 => (r + c).is_multiple_of(3),
        4 => (r / 2 + c / 3).is_multiple_of(2),
        5 => (r * c) % 2 + (r * c) % 3 == 0,
        6 => ((r * c) % 2 + (r * c) % 3).is_multiple_of(2),
        7 => ((r + c) % 2 + (r * c) % 3).is_multiple_of(2),
        _ => panic!("mask out of range"),
    }
}

/// Format-info module positions for copy 1 (around the top-left finder),
/// most significant bit first.
pub fn format_positions_copy1() -> [(usize, usize); 15] {
    [
        (8, 0),
        (8, 1),
        (8, 2),
        (8, 3),
        (8, 4),
        (8, 5),
        (8, 7),
        (8, 8),
        (7, 8),
        (5, 8),
        (4, 8),
        (3, 8),
        (2, 8),
        (1, 8),
        (0, 8),
    ]
}

/// Format-info module positions for copy 2 (split between the bottom-left
/// and top-right finders), most significant bit first.
pub fn format_positions_copy2(size: usize) -> [(usize, usize); 15] {
    let mut out = [(0usize, 0usize); 15];
    // 7 bits down the left of the bottom-left finder (col 8).
    for (i, slot) in out.iter_mut().take(7).enumerate() {
        *slot = (size - 1 - i, 8);
    }
    // 8 bits along the bottom of the top-right finder (row 8).
    for i in 0..8 {
        out[7 + i] = (8, size - 8 + i);
    }
    out
}

/// The scalar penalty score: the reference the packed one is checked
/// against.
#[cfg(test)]
impl Matrix {
    pub(crate) fn penalty(&self) -> u32 {
        let size = self.size;
        let mut score = 0u32;

        // Rule 1: runs of >= 5 same-colour modules, rows and columns.
        for axis in 0..2 {
            for i in 0..size {
                let mut run = 1;
                let mut prev = self.axis_get(axis, i, 0);
                for j in 1..size {
                    let cur = self.axis_get(axis, i, j);
                    if cur == prev {
                        run += 1;
                    } else {
                        if run >= 5 {
                            score += 3 + (run - 5) as u32;
                        }
                        run = 1;
                        prev = cur;
                    }
                }
                if run >= 5 {
                    score += 3 + (run - 5) as u32;
                }
            }
        }

        // Rule 2: 2x2 blocks of the same colour.
        for r in 0..size - 1 {
            for c in 0..size - 1 {
                let v = self.get(r, c);
                if self.get(r, c + 1) == v && self.get(r + 1, c) == v && self.get(r + 1, c + 1) == v
                {
                    score += 3;
                }
            }
        }

        // Rule 3: finder-like 1011101 pattern with 4 light modules on
        // either side.
        const PAT: [bool; 11] = [
            true, false, true, true, true, false, true, false, false, false, false,
        ];
        for axis in 0..2 {
            for i in 0..size {
                for j in 0..size.saturating_sub(10) {
                    let fwd = (0..11).all(|k| self.axis_get(axis, i, j + k) == PAT[k]);
                    let rev = (0..11).all(|k| self.axis_get(axis, i, j + k) == PAT[10 - k]);
                    if fwd {
                        score += 40;
                    }
                    if rev {
                        score += 40;
                    }
                }
            }
        }

        // Rule 4: dark-module balance.
        let dark_pct = (self.dark_fraction() * 100.0).round() as i32;
        score += ((dark_pct - 50).abs() / 5) as u32 * 10;
        score
    }

    fn axis_get(&self, axis: usize, i: usize, j: usize) -> bool {
        if axis == 0 {
            self.get(i, j)
        } else {
            self.get(j, i)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::{block_spec, remainder_bits, EcLevel, MAX_VERSION};

    #[test]
    fn finder_patterns_in_three_corners() {
        let m = Matrix::for_version(1);
        // Centers of the finder patterns are dark.
        assert!(m.get(3, 3));
        assert!(m.get(3, 17));
        assert!(m.get(17, 3));
        // Fourth corner has no finder.
        assert!(!m.get(17, 17));
        // Ring structure: (0,0) dark, (1,1) light, (2,2) dark.
        assert!(m.get(0, 0));
        assert!(!m.get(1, 1));
        assert!(m.get(2, 2));
    }

    #[test]
    fn timing_patterns_alternate() {
        let m = Matrix::for_version(2);
        for i in 8..m.size() - 8 {
            assert_eq!(m.get(6, i), i % 2 == 0, "row timing at {i}");
            assert_eq!(m.get(i, 6), i % 2 == 0, "col timing at {i}");
        }
    }

    #[test]
    fn dark_module_present() {
        for v in 1..=MAX_VERSION {
            let m = Matrix::for_version(v);
            assert!(m.get(m.size() - 8, 8), "v{v} dark module");
            assert!(m.is_function(m.size() - 8, 8));
        }
    }

    #[test]
    fn alignment_pattern_in_v2() {
        let m = Matrix::for_version(2);
        // v2 alignment centre at (18, 18).
        assert!(m.get(18, 18));
        assert!(!m.get(17, 18));
        assert!(m.get(16, 18));
        assert!(m.is_function(18, 18));
    }

    #[test]
    fn data_capacity_matches_tables() {
        // Non-function module count must equal 8 * total codewords +
        // remainder bits for every version.
        for v in 1..=MAX_VERSION {
            let m = Matrix::for_version(v);
            let order = m.data_order();
            let expected = block_spec(v, EcLevel::L).total_codewords() * 8 + remainder_bits(v);
            assert_eq!(order.len(), expected, "v{v} data module count");
        }
    }

    #[test]
    fn data_order_has_no_duplicates_or_function_cells() {
        let m = Matrix::for_version(7);
        let order = m.data_order();
        let mut seen = std::collections::HashSet::new();
        for &(r, c) in &order {
            assert!(!m.is_function(r, c), "({r},{c}) is a function cell");
            assert!(seen.insert((r, c)), "({r},{c}) appears twice");
        }
    }

    #[test]
    fn mask_is_involution() {
        let mut m = Matrix::for_version(3);
        // Scatter some data bits.
        let order = m.data_order();
        for (i, &(r, c)) in order.iter().enumerate() {
            m.set(r, c, i % 3 == 0);
        }
        let before = m.clone();
        for mask in 0..8 {
            m.apply_mask(mask);
            m.apply_mask(mask);
            assert_eq!(m, before, "mask {mask} not an involution");
        }
    }

    #[test]
    fn masks_differ_from_each_other() {
        let base = Matrix::for_version(2);
        let mut rendered = Vec::new();
        for mask in 0..8u8 {
            let mut m = base.clone();
            m.apply_mask(mask);
            rendered.push(m);
        }
        for i in 0..8 {
            for j in i + 1..8 {
                assert_ne!(rendered[i], rendered[j], "masks {i} and {j} identical");
            }
        }
    }

    #[test]
    fn format_positions_are_distinct_and_in_bounds() {
        for v in [1u8, 7, 10] {
            let size = symbol_size(v);
            let p1 = format_positions_copy1();
            let p2 = format_positions_copy2(size);
            let all: std::collections::HashSet<_> = p1.iter().chain(p2.iter()).collect();
            assert_eq!(all.len(), 30, "v{v} positions overlap");
            for &(r, c) in p1.iter().chain(p2.iter()) {
                assert!(r < size && c < size);
            }
        }
    }

    #[test]
    fn penalty_is_finite_and_sane() {
        let m = Matrix::for_version(1);
        let p = m.penalty();
        // An empty (all-light data) matrix has huge run penalties.
        assert!(p > 100);
    }
}
