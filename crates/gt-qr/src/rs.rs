//! Reed–Solomon encoding and decoding over GF(2⁸).
//!
//! QR codes use RS with consecutive roots starting at α⁰. The decoder
//! implements syndromes → Berlekamp–Massey (error locator) → Chien search
//! (error positions) → Forney (error magnitudes), correcting up to
//! ⌊ec/2⌋ byte errors per block.

use crate::gf::Gf;

/// Generator polynomial for `ec_len` parity bytes (highest-degree first,
/// monic).
pub fn generator_poly(gf: &Gf, ec_len: usize) -> Vec<u8> {
    let mut g = vec![1u8];
    for i in 0..ec_len {
        g = gf.poly_mul(&g, &[1, gf.exp(i)]);
    }
    g
}

/// Compute `ec_len` parity bytes for `data`.
pub fn encode(gf: &Gf, data: &[u8], ec_len: usize) -> Vec<u8> {
    assert!(ec_len > 0, "need at least one parity byte");
    let gen = generator_poly(gf, ec_len);
    // Polynomial long division: remainder of data·x^ec_len by gen.
    let mut rem = vec![0u8; ec_len];
    for &d in data {
        let factor = d ^ rem[0];
        rem.remove(0);
        rem.push(0);
        if factor != 0 {
            for (i, &g) in gen[1..].iter().enumerate() {
                rem[i] ^= gf.mul(g, factor);
            }
        }
    }
    rem
}

/// Errors the decoder can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RsError {
    /// More errors than the code can correct.
    TooManyErrors,
}

/// Decode a full codeword (data ‖ parity) in place, correcting up to
/// ⌊ec_len/2⌋ errors. Returns the number of corrected bytes.
pub fn correct(gf: &Gf, codeword: &mut [u8], ec_len: usize) -> Result<usize, RsError> {
    assert!(codeword.len() > ec_len, "codeword shorter than parity");
    let n = codeword.len();

    // Syndromes S_i = C(α^i), i = 0..ec_len.
    let mut syndromes = vec![0u8; ec_len];
    let mut all_zero = true;
    for (i, s) in syndromes.iter_mut().enumerate() {
        *s = gf.poly_eval(codeword, gf.exp(i));
        if *s != 0 {
            all_zero = false;
        }
    }
    if all_zero {
        return Ok(0);
    }

    // Berlekamp–Massey: find error locator sigma (lowest-degree first).
    let mut sigma = vec![1u8]; // σ(x), ascending powers
    let mut prev_sigma = vec![1u8];
    let mut l = 0usize; // current number of assumed errors
    let mut m = 1usize; // steps since last update
    let mut b = 1u8; // last non-zero discrepancy

    for r in 0..ec_len {
        // Discrepancy δ = Σ σ_j · S_{r-j}.
        let mut delta = syndromes[r];
        for j in 1..=l.min(sigma.len() - 1) {
            delta ^= gf.mul(sigma[j], syndromes[r - j]);
        }
        if delta == 0 {
            m += 1;
        } else if 2 * l <= r {
            let t = sigma.clone();
            // σ(x) -= (δ/b)·x^m·prev_sigma(x)
            let coef = gf.div(delta, b);
            let mut shifted = vec![0u8; m];
            shifted.extend(prev_sigma.iter().map(|&c| gf.mul(c, coef)));
            if shifted.len() > sigma.len() {
                sigma.resize(shifted.len(), 0);
            }
            for (i, &c) in shifted.iter().enumerate() {
                sigma[i] ^= c;
            }
            l = r + 1 - l;
            prev_sigma = t;
            b = delta;
            m = 1;
        } else {
            let coef = gf.div(delta, b);
            let mut shifted = vec![0u8; m];
            shifted.extend(prev_sigma.iter().map(|&c| gf.mul(c, coef)));
            if shifted.len() > sigma.len() {
                sigma.resize(shifted.len(), 0);
            }
            for (i, &c) in shifted.iter().enumerate() {
                sigma[i] ^= c;
            }
            m += 1;
        }
    }

    // Trim trailing zero coefficients; the true locator degree is L.
    while sigma.len() > 1 && *sigma.last().unwrap() == 0 {
        sigma.pop();
    }
    let num_errors = l;
    if num_errors * 2 > ec_len || num_errors == 0 || sigma.len() - 1 != num_errors {
        return Err(RsError::TooManyErrors);
    }

    // Chien search: roots of σ give error positions. σ is ascending; the
    // error position j corresponds to root α^{-j}.
    let mut error_positions = Vec::new();
    for j in 0..n {
        // Evaluate σ(α^{-j}) = σ(α^{255-j}).
        let x = gf.exp(255 - (j % 255));
        let mut y = 0u8;
        for (k, &c) in sigma.iter().enumerate() {
            if c != 0 {
                y ^= gf.mul(c, gf.exp((gf.log(x) * k) % 255));
            }
        }
        if y == 0 {
            // Position j counts from the END of the codeword (degree 0).
            error_positions.push(n - 1 - j);
        }
    }
    if error_positions.len() != num_errors {
        return Err(RsError::TooManyErrors);
    }

    // Forney: error magnitudes. Ω(x) = S(x)·σ(x) mod x^ec_len (ascending).
    let mut omega = vec![0u8; ec_len];
    for (i, o) in omega.iter_mut().enumerate() {
        let mut v = 0u8;
        for j in 0..=i.min(sigma.len() - 1) {
            v ^= gf.mul(sigma[j], syndromes[i - j]);
        }
        *o = v;
    }
    // σ'(x): formal derivative — odd-degree terms drop one power.
    let mut sigma_deriv = vec![0u8; sigma.len().saturating_sub(1)];
    for (k, &c) in sigma.iter().enumerate().skip(1) {
        if k % 2 == 1 {
            sigma_deriv[k - 1] = c;
        }
    }

    for &pos in &error_positions {
        let j = n - 1 - pos; // exponent index used in Chien search
        let x_inv = gf.exp(255 - (j % 255)); // α^{-j}
        let omega_val = eval_ascending(gf, &omega, x_inv);
        let deriv_val = eval_ascending(gf, &sigma_deriv, x_inv);
        if deriv_val == 0 {
            return Err(RsError::TooManyErrors);
        }
        // Forney with first consecutive root b = 0:
        // e_j = X_j · Ω(X_j⁻¹) / σ'(X_j⁻¹), with X_j = α^j.
        let x_j = gf.exp(j % 255);
        let magnitude = gf.mul(x_j, gf.div(omega_val, deriv_val));
        codeword[pos] ^= magnitude;
    }

    // Verify: all syndromes must now vanish.
    for i in 0..ec_len {
        if gf.poly_eval(codeword, gf.exp(i)) != 0 {
            return Err(RsError::TooManyErrors);
        }
    }
    Ok(error_positions.len())
}

/// Evaluate a polynomial given in ascending-power order.
fn eval_ascending(gf: &Gf, p: &[u8], x: u8) -> u8 {
    let mut y = 0u8;
    for &c in p.iter().rev() {
        y = gf.mul(y, x) ^ c;
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gf::GF;

    #[test]
    fn known_generator_polynomials() {
        // Standard QR generator for 7 EC codewords (exponents of α):
        // x⁷ + α87·x⁶ + α229·x⁵ + α146·x⁴ + α149·x³ + α238·x² + α102·x + α21
        let g7 = generator_poly(&GF, 7);
        let expected: Vec<u8> = [0usize, 87, 229, 146, 149, 238, 102, 21]
            .iter()
            .map(|&e| GF.exp(e))
            .collect();
        assert_eq!(g7, expected);
    }

    #[test]
    fn known_qr_example_parity() {
        // The "HELLO WORLD" example from Thonky's QR tutorial: the v1-M
        // data codewords below must produce these 10 EC codewords.
        let data = [
            32, 91, 11, 120, 209, 114, 220, 77, 67, 64, 236, 17, 236, 17, 236, 17,
        ];
        let parity = encode(&GF, &data, 10);
        assert_eq!(parity, vec![196, 35, 39, 119, 235, 215, 231, 226, 93, 23]);
    }

    #[test]
    fn clean_codeword_needs_no_correction() {
        let data = b"giveaway scam measurement".to_vec();
        let parity = encode(&GF, &data, 16);
        let mut codeword = data.clone();
        codeword.extend(parity);
        assert_eq!(correct(&GF, &mut codeword, 16), Ok(0));
        assert_eq!(&codeword[..data.len()], &data[..]);
    }

    #[test]
    fn corrects_up_to_capacity() {
        let data: Vec<u8> = (0..40u8).collect();
        for ec_len in [8usize, 16, 22, 30] {
            let parity = encode(&GF, &data, ec_len);
            let clean: Vec<u8> = data.iter().chain(parity.iter()).copied().collect();
            for num_errors in 1..=ec_len / 2 {
                let mut corrupted = clean.clone();
                // Spread errors over distinct positions.
                let stride = corrupted.len() / num_errors;
                for e in 0..num_errors {
                    let pos = e * stride;
                    corrupted[pos] ^= 0x5a + e as u8;
                }
                let fixed = correct(&GF, &mut corrupted, ec_len)
                    .unwrap_or_else(|_| panic!("ec={ec_len} errors={num_errors}"));
                assert_eq!(fixed, num_errors);
                assert_eq!(corrupted, clean, "ec={ec_len} errors={num_errors}");
            }
        }
    }

    #[test]
    fn too_many_errors_detected() {
        let data: Vec<u8> = (100..150u8).collect();
        let ec_len = 10;
        let parity = encode(&GF, &data, ec_len);
        let mut codeword: Vec<u8> = data.iter().chain(parity.iter()).copied().collect();
        // 6 errors > capacity 5 — decoder must not silently "correct".
        for e in 0..6 {
            codeword[e * 3] ^= 0xff;
        }
        assert_eq!(
            correct(&GF, &mut codeword, ec_len),
            Err(RsError::TooManyErrors)
        );
    }

    #[test]
    fn parity_position_errors_corrected_too() {
        let data = b"scanned from stream".to_vec();
        let parity = encode(&GF, &data, 12);
        let mut codeword: Vec<u8> = data.iter().chain(parity.iter()).copied().collect();
        let n = codeword.len();
        codeword[n - 1] ^= 0x42; // corrupt last parity byte
        codeword[n - 5] ^= 0x17;
        assert_eq!(correct(&GF, &mut codeword, 12), Ok(2));
        assert_eq!(&codeword[..data.len()], &data[..]);
    }

    #[test]
    fn single_parity_byte_detects_but_cannot_correct() {
        let data = [1u8, 2, 3];
        let parity = encode(&GF, &data, 2);
        let mut codeword: Vec<u8> = data.iter().chain(parity.iter()).copied().collect();
        codeword[0] ^= 1;
        // 2 parity bytes correct 1 error.
        assert_eq!(correct(&GF, &mut codeword, 2), Ok(1));
        assert_eq!(&codeword[..3], &data[..]);
    }
}
