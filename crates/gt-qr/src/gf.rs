//! GF(2⁸) arithmetic with the QR/Reed–Solomon polynomial x⁸+x⁴+x³+x²+1
//! (0x11D), generator α = 2.

/// Exponent table: `EXP[i] = α^i`, doubled so products index without a
/// modulo.
fn build_tables() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    for (i, e) in exp.iter_mut().enumerate().take(255) {
        *e = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= 0x11d;
        }
    }
    for i in 255..512 {
        exp[i] = exp[i - 255];
    }
    (exp, log)
}

/// Precomputed field tables.
pub struct Gf {
    exp: [u8; 512],
    log: [u8; 256],
}

impl Gf {
    pub fn new() -> Self {
        let (exp, log) = build_tables();
        Gf { exp, log }
    }

    /// α^i for i in 0..255 (wraps mod 255).
    pub fn exp(&self, i: usize) -> u8 {
        self.exp[i % 255]
    }

    /// log_α(x); panics on zero.
    pub fn log(&self, x: u8) -> usize {
        assert!(x != 0, "log of zero");
        self.log[x as usize] as usize
    }

    /// Field multiplication.
    pub fn mul(&self, a: u8, b: u8) -> u8 {
        if a == 0 || b == 0 {
            0
        } else {
            self.exp[self.log[a as usize] as usize + self.log[b as usize] as usize]
        }
    }

    /// Field division; panics on division by zero.
    pub fn div(&self, a: u8, b: u8) -> u8 {
        assert!(b != 0, "division by zero");
        if a == 0 {
            0
        } else {
            self.exp[255 + self.log[a as usize] as usize - self.log[b as usize] as usize]
        }
    }

    /// Evaluate polynomial `p` (highest-degree coefficient first) at `x`.
    pub fn poly_eval(&self, p: &[u8], x: u8) -> u8 {
        let mut y = 0u8;
        for &c in p {
            y = self.mul(y, x) ^ c;
        }
        y
    }

    /// Multiply polynomials (highest-degree first).
    pub fn poly_mul(&self, a: &[u8], b: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; a.len() + b.len() - 1];
        for (i, &ca) in a.iter().enumerate() {
            for (j, &cb) in b.iter().enumerate() {
                out[i + j] ^= self.mul(ca, cb);
            }
        }
        out
    }
}

impl Default for Gf {
    fn default() -> Self {
        Gf::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_log_inverse_of_each_other() {
        let gf = Gf::new();
        for x in 1..=255u8 {
            assert_eq!(gf.exp(gf.log(x)), x);
        }
        for i in 0..255usize {
            assert_eq!(gf.log(gf.exp(i)), i);
        }
    }

    #[test]
    fn known_powers_of_two() {
        let gf = Gf::new();
        assert_eq!(gf.exp(0), 1);
        assert_eq!(gf.exp(1), 2);
        assert_eq!(gf.exp(8), 29, "α⁸ = 0x1D after reduction");
    }

    #[test]
    fn mul_matches_russian_peasant() {
        // Cross-check table multiplication against carry-less reference.
        fn slow_mul(mut a: u16, mut b: u16) -> u8 {
            let mut p: u16 = 0;
            while b != 0 {
                if b & 1 != 0 {
                    p ^= a;
                }
                a <<= 1;
                if a & 0x100 != 0 {
                    a ^= 0x11d;
                }
                b >>= 1;
            }
            p as u8
        }
        let gf = Gf::new();
        for a in (0..=255u16).step_by(7) {
            for b in (0..=255u16).step_by(11) {
                assert_eq!(gf.mul(a as u8, b as u8), slow_mul(a, b), "{a} * {b}");
            }
        }
    }

    #[test]
    fn div_inverts_mul() {
        let gf = Gf::new();
        for a in 1..=255u8 {
            for b in [1u8, 2, 3, 29, 128, 255] {
                assert_eq!(gf.div(gf.mul(a, b), b), a);
            }
        }
    }

    #[test]
    fn poly_eval_horner() {
        let gf = Gf::new();
        // p(x) = x² + 3x + 2 at x=1 is 1^2 ^ 3 ^ 2 = 0 (XOR arithmetic).
        assert_eq!(gf.poly_eval(&[1, 3, 2], 1), 1 ^ 3 ^ 2);
        // p(0) = constant term.
        assert_eq!(gf.poly_eval(&[7, 9, 42], 0), 42);
    }

    #[test]
    fn poly_mul_degree_adds() {
        let gf = Gf::new();
        let p = gf.poly_mul(&[1, 1], &[1, 2]); // (x+1)(x+2) = x² + 3x + 2
        assert_eq!(p, vec![1, 3, 2]);
    }
}
