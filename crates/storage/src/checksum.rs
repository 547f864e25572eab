//! A dependency-free 64-bit content checksum (XXH64-style).
//!
//! The durable store files ([`crate::durable`]) must detect torn writes
//! and bit rot *before* any byte reaches the structural decoder. This
//! module implements the XXH64 algorithm (Yann Collet's public-domain
//! specification): 4 interleaved 64-bit accumulators over 32-byte
//! stripes, a merge round, a tail loop and a final avalanche. It is not
//! cryptographic — the adversary is entropy, not an attacker — but a
//! single flipped bit anywhere in the input changes the digest with
//! overwhelming probability, and the avalanche step guarantees it is
//! never a fixed point for small inputs.
//!
//! The implementation is deliberately self-contained (no external
//! crates, no `unsafe`, no SIMD). Throughput still matters: a reopen
//! verifies every byte of the snapshot and of each delta before it
//! decodes anything, so the stripe loop reads whole little-endian words
//! rather than copying byte by byte.

const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

/// Seed used by every checksum in the store-file formats. Fixed so that
/// files are comparable across processes; the superblock carries a
/// format version for everything else.
pub const CHECKSUM_SEED: u64 = 0x6D6F_6273_746F_7231; // "mobstor1"

#[inline]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

#[inline]
fn merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ round(0, val))
        .wrapping_mul(PRIME_1)
        .wrapping_add(PRIME_4)
}

#[inline]
fn read_u64_at(b: &[u8], off: usize) -> u64 {
    let word: Option<[u8; 8]> = b
        .get(off..)
        .and_then(|s| s.get(..8))
        .and_then(|s| s.try_into().ok());
    if let Some(word) = word {
        return u64::from_le_bytes(word);
    }
    // Short tail: a total zip-copy where missing bytes read as zero (the
    // loop guards below always supply the full word, but nothing here
    // can panic).
    let mut v = [0u8; 8];
    for (d, s) in v.iter_mut().zip(b.iter().skip(off)) {
        *d = *s;
    }
    u64::from_le_bytes(v)
}

#[inline]
fn read_u32(b: &[u8]) -> u64 {
    let mut v = [0u8; 4];
    for (d, s) in v.iter_mut().zip(b) {
        *d = *s;
    }
    u64::from(u32::from_le_bytes(v))
}

/// XXH64 of `bytes` under [`CHECKSUM_SEED`].
#[must_use]
pub fn checksum64(bytes: &[u8]) -> u64 {
    checksum64_seeded(bytes, CHECKSUM_SEED)
}

/// XXH64 of `bytes` under an explicit seed.
#[must_use]
pub fn checksum64_seeded(bytes: &[u8], seed: u64) -> u64 {
    let len = bytes.len() as u64;
    let mut rest = bytes;
    let mut h: u64;
    if rest.len() >= 32 {
        let mut v1 = seed.wrapping_add(PRIME_1).wrapping_add(PRIME_2);
        let mut v2 = seed.wrapping_add(PRIME_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME_1);
        while rest.len() >= 32 {
            v1 = round(v1, read_u64_at(rest, 0));
            v2 = round(v2, read_u64_at(rest, 8));
            v3 = round(v3, read_u64_at(rest, 16));
            v4 = round(v4, read_u64_at(rest, 24));
            rest = rest.get(32..).unwrap_or_default();
        }
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = merge_round(h, v1);
        h = merge_round(h, v2);
        h = merge_round(h, v3);
        h = merge_round(h, v4);
    } else {
        h = seed.wrapping_add(PRIME_5);
    }
    h = h.wrapping_add(len);
    while rest.len() >= 8 {
        h = (h ^ round(0, read_u64_at(rest, 0)))
            .rotate_left(27)
            .wrapping_mul(PRIME_1)
            .wrapping_add(PRIME_4);
        rest = rest.get(8..).unwrap_or_default();
    }
    if rest.len() >= 4 {
        h = (h ^ read_u32(rest).wrapping_mul(PRIME_1))
            .rotate_left(23)
            .wrapping_mul(PRIME_2)
            .wrapping_add(PRIME_3);
        rest = rest.get(4..).unwrap_or_default();
    }
    for &b in rest {
        h = (h ^ u64::from(b).wrapping_mul(PRIME_5))
            .rotate_left(11)
            .wrapping_mul(PRIME_1);
    }
    // Final avalanche: every input bit affects every output bit.
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME_3);
    h ^= h >> 32;
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Reference digests of the XXH64 specification (seed 0).
        assert_eq!(checksum64_seeded(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(checksum64_seeded(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(checksum64_seeded(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            checksum64_seeded(b"Nobody inspects the spammish repetition", 0),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn seed_changes_digest() {
        assert_ne!(checksum64_seeded(b"abc", 0), checksum64_seeded(b"abc", 1));
        assert_eq!(checksum64(b"abc"), checksum64_seeded(b"abc", CHECKSUM_SEED));
    }

    #[test]
    fn every_single_bit_flip_changes_the_digest() {
        // The property the corruption campaign relies on, proven here on
        // a pseudo-random buffer spanning all loop regimes (stripes,
        // 8/4/1-byte tails).
        for len in [0usize, 1, 3, 4, 7, 8, 15, 31, 32, 33, 64, 100] {
            let buf: Vec<u8> = (0..len)
                .map(|i| (i as u8).wrapping_mul(37) ^ 0x5A)
                .collect();
            let clean = checksum64(&buf);
            for pos in 0..len {
                for bit in 0..8 {
                    let mut bad = buf.clone();
                    bad[pos] ^= 1 << bit;
                    assert_ne!(checksum64(&bad), clean, "len {len} pos {pos} bit {bit}");
                }
            }
        }
    }

    #[test]
    fn length_extension_is_not_a_collision() {
        assert_ne!(checksum64(b"ab"), checksum64(b"ab\0"));
        assert_ne!(checksum64(b""), checksum64(b"\0"));
    }
}
