//! QR symbol structure tables (versions 1–10, byte mode).

/// Error-correction level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EcLevel {
    /// ~7% recovery.
    L,
    /// ~15% recovery.
    M,
    /// ~25% recovery.
    Q,
    /// ~30% recovery.
    H,
}

impl EcLevel {
    pub const ALL: [EcLevel; 4] = [EcLevel::L, EcLevel::M, EcLevel::Q, EcLevel::H];

    /// The two-bit indicator used in the format information.
    pub fn format_bits(self) -> u8 {
        match self {
            EcLevel::L => 0b01,
            EcLevel::M => 0b00,
            EcLevel::Q => 0b11,
            EcLevel::H => 0b10,
        }
    }

    fn index(self) -> usize {
        match self {
            EcLevel::L => 0,
            EcLevel::M => 1,
            EcLevel::Q => 2,
            EcLevel::H => 3,
        }
    }
}

/// One group of identical RS blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockGroup {
    /// Number of blocks in this group.
    pub count: usize,
    /// Data codewords per block.
    pub data_len: usize,
    /// Error-correction codewords per block.
    pub ec_len: usize,
}

/// Block structure for a (version, level).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSpec {
    pub groups: [Option<BlockGroup>; 2],
}

impl BlockSpec {
    /// Total data codewords.
    pub fn data_codewords(&self) -> usize {
        self.groups
            .iter()
            .flatten()
            .map(|g| g.count * g.data_len)
            .sum()
    }

    /// Total codewords (data + EC).
    pub fn total_codewords(&self) -> usize {
        self.groups
            .iter()
            .flatten()
            .map(|g| g.count * (g.data_len + g.ec_len))
            .sum()
    }

    /// Iterate over (data_len, ec_len) for every block, in block order.
    pub fn blocks(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.groups
            .iter()
            .flatten()
            .flat_map(|g| std::iter::repeat_n((g.data_len, g.ec_len), g.count))
    }
}

const fn one(count: usize, data_len: usize, ec_len: usize) -> BlockSpec {
    BlockSpec {
        groups: [
            Some(BlockGroup {
                count,
                data_len,
                ec_len,
            }),
            None,
        ],
    }
}

const fn two(c1: usize, d1: usize, c2: usize, d2: usize, ec_len: usize) -> BlockSpec {
    BlockSpec {
        groups: [
            Some(BlockGroup {
                count: c1,
                data_len: d1,
                ec_len,
            }),
            Some(BlockGroup {
                count: c2,
                data_len: d2,
                ec_len,
            }),
        ],
    }
}

/// Block structure table, indexed `[version-1][level]` (ISO/IEC 18004
/// Table 9, versions 1–10).
const BLOCKS: [[BlockSpec; 4]; 10] = [
    // v1 (26 codewords)
    [one(1, 19, 7), one(1, 16, 10), one(1, 13, 13), one(1, 9, 17)],
    // v2 (44)
    [
        one(1, 34, 10),
        one(1, 28, 16),
        one(1, 22, 22),
        one(1, 16, 28),
    ],
    // v3 (70)
    [
        one(1, 55, 15),
        one(1, 44, 26),
        one(2, 17, 18),
        one(2, 13, 22),
    ],
    // v4 (100)
    [
        one(1, 80, 20),
        one(2, 32, 18),
        one(2, 24, 26),
        one(4, 9, 16),
    ],
    // v5 (134)
    [
        one(1, 108, 26),
        one(2, 43, 24),
        two(2, 15, 2, 16, 18),
        two(2, 11, 2, 12, 22),
    ],
    // v6 (172)
    [
        one(2, 68, 18),
        one(4, 27, 16),
        one(4, 19, 24),
        one(4, 15, 28),
    ],
    // v7 (196)
    [
        one(2, 78, 20),
        one(4, 31, 18),
        two(2, 14, 4, 15, 18),
        two(4, 13, 1, 14, 26),
    ],
    // v8 (242)
    [
        one(2, 97, 24),
        two(2, 38, 2, 39, 22),
        two(4, 18, 2, 19, 22),
        two(4, 14, 2, 15, 26),
    ],
    // v9 (292)
    [
        one(2, 116, 30),
        two(3, 36, 2, 37, 22),
        two(4, 16, 4, 17, 20),
        two(4, 12, 4, 13, 24),
    ],
    // v10 (346)
    [
        two(2, 68, 2, 69, 18),
        two(4, 43, 1, 44, 26),
        two(6, 19, 2, 20, 24),
        two(6, 15, 2, 16, 28),
    ],
];

/// Total codewords per version (function-pattern-independent capacity).
pub const TOTAL_CODEWORDS: [usize; 10] = [26, 44, 70, 100, 134, 172, 196, 242, 292, 346];

/// Maximum supported version.
pub const MAX_VERSION: u8 = 10;

/// Block structure for a (version, level). Versions are 1-based.
pub fn block_spec(version: u8, level: EcLevel) -> BlockSpec {
    assert!(
        (1..=MAX_VERSION).contains(&version),
        "unsupported version {version}"
    );
    BLOCKS[(version - 1) as usize][level.index()]
}

/// Side length in modules for a version.
pub fn symbol_size(version: u8) -> usize {
    17 + 4 * version as usize
}

/// Version for a symbol side length, if valid.
pub fn version_for_size(size: usize) -> Option<u8> {
    if size < 21 || !(size - 17).is_multiple_of(4) {
        return None;
    }
    let v = ((size - 17) / 4) as u8;
    (v <= MAX_VERSION).then_some(v)
}

/// Alignment pattern centre coordinates per version.
pub fn alignment_positions(version: u8) -> &'static [usize] {
    match version {
        1 => &[],
        2 => &[6, 18],
        3 => &[6, 22],
        4 => &[6, 26],
        5 => &[6, 30],
        6 => &[6, 34],
        7 => &[6, 22, 38],
        8 => &[6, 24, 42],
        9 => &[6, 26, 46],
        10 => &[6, 28, 50],
        _ => panic!("unsupported version {version}"),
    }
}

/// Remainder bits after the last codeword for each version.
pub fn remainder_bits(version: u8) -> usize {
    match version {
        1 => 0,
        2..=6 => 7,
        7..=10 => 0,
        _ => panic!("unsupported version {version}"),
    }
}

/// Byte-mode character-count field width in bits.
pub fn byte_count_bits(version: u8) -> usize {
    if version <= 9 {
        8
    } else {
        16
    }
}

/// Byte-mode capacity in bytes for (version, level).
pub fn byte_capacity(version: u8, level: EcLevel) -> usize {
    let data_bits = block_spec(version, level).data_codewords() * 8;
    // mode indicator (4) + count field
    let overhead = 4 + byte_count_bits(version);
    data_bits.saturating_sub(overhead) / 8
}

/// Smallest version that fits `len` bytes at `level`.
pub fn smallest_version(len: usize, level: EcLevel) -> Option<u8> {
    (1..=MAX_VERSION).find(|&v| byte_capacity(v, level) >= len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_totals_match_symbol_capacity() {
        for v in 1..=MAX_VERSION {
            for level in EcLevel::ALL {
                let spec = block_spec(v, level);
                assert_eq!(
                    spec.total_codewords(),
                    TOTAL_CODEWORDS[(v - 1) as usize],
                    "v{v} {level:?}"
                );
            }
        }
    }

    #[test]
    fn data_codewords_decrease_with_ec_level() {
        for v in 1..=MAX_VERSION {
            let caps: Vec<usize> = EcLevel::ALL
                .iter()
                .map(|&l| block_spec(v, l).data_codewords())
                .collect();
            assert!(caps[0] > caps[1], "v{v} L > M");
            assert!(caps[1] > caps[2], "v{v} M > Q");
            assert!(caps[2] > caps[3], "v{v} Q > H");
        }
    }

    #[test]
    fn known_capacities() {
        // Published byte-mode capacities.
        assert_eq!(byte_capacity(1, EcLevel::L), 17);
        assert_eq!(byte_capacity(1, EcLevel::H), 7);
        assert_eq!(byte_capacity(2, EcLevel::M), 26);
        assert_eq!(byte_capacity(4, EcLevel::Q), 46);
        assert_eq!(byte_capacity(10, EcLevel::L), 271);
    }

    #[test]
    fn symbol_sizes() {
        assert_eq!(symbol_size(1), 21);
        assert_eq!(symbol_size(10), 57);
        assert_eq!(version_for_size(21), Some(1));
        assert_eq!(version_for_size(57), Some(10));
        assert_eq!(version_for_size(22), None);
        assert_eq!(version_for_size(17), None);
        assert_eq!(version_for_size(61), None, "v11 unsupported");
    }

    #[test]
    fn smallest_version_picks_minimal_fit() {
        assert_eq!(smallest_version(17, EcLevel::L), Some(1));
        assert_eq!(smallest_version(18, EcLevel::L), Some(2));
        assert_eq!(smallest_version(1000, EcLevel::L), None);
        // A typical scam URL (~40 chars) fits v3-M.
        let v = smallest_version(40, EcLevel::M).unwrap();
        assert!(v <= 4, "40-byte URL should fit a small symbol, got v{v}");
    }

    #[test]
    fn alignment_positions_fit_symbol() {
        for v in 1..=MAX_VERSION {
            let size = symbol_size(v);
            for &p in alignment_positions(v) {
                assert!(p + 2 < size, "v{v} alignment at {p} exceeds symbol");
            }
        }
    }
}
