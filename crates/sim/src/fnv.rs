//! FNV-1a 64, the one checksum every file format in the workspace uses:
//! `.avimg` camera images, `.avtr` traces, `avfi-store` journal records,
//! and the neural weights fingerprint.

/// FNV-1a 64 offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(OFFSET, bytes)
}

/// Continues the FNV-1a 64 hash `h` of some prefix over `bytes`, so the
/// hash of a concatenation needs no joined buffer.
pub fn fnv1a64_extend(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}
