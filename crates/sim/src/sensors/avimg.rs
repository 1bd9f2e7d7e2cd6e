//! `.avimg` — the checked-in golden-image artifact format.
//!
//! A golden camera frame must round-trip bit for bit (the regression tier
//! compares renders by equality, not tolerance), stay compact enough to
//! live in the repository, and fail loudly when a file is damaged. The
//! format is deliberately minimal:
//!
//! ```text
//! offset  size  field
//! 0       8     magic "AVIMG\x01\0\0"
//! 8       4     width,  u32 little-endian
//! 12      4     height, u32 little-endian
//! 16      12wh  pixels, f32 little-endian, row-major RGB interleaved
//! 16+12wh 8     FNV-1a 64 checksum of bytes [0, 16+12wh), u64 LE
//! ```
//!
//! The trailing checksum covers the header too, so truncation, trailing
//! garbage, or any byte flip is rejected at decode time.

use crate::fnv::fnv1a64;
use crate::sensors::Image;
use std::io;
use std::path::Path;

/// File magic: format name plus a version byte.
const MAGIC: [u8; 8] = *b"AVIMG\x01\0\0";

/// Serializes an image to `.avimg` bytes.
pub fn encode_avimg(img: &Image) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + img.data().len() * 4 + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&(img.width() as u32).to_le_bytes());
    out.extend_from_slice(&(img.height() as u32).to_le_bytes());
    for v in img.data() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// The FNV-1a 64 content checksum an encoded image would carry, without
/// materializing the byte buffer twice. Used for compact drift reports.
pub fn avimg_checksum(img: &Image) -> u64 {
    fnv1a64(&encode_avimg_body(img))
}

fn encode_avimg_body(img: &Image) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + img.data().len() * 4);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&(img.width() as u32).to_le_bytes());
    out.extend_from_slice(&(img.height() as u32).to_le_bytes());
    for v in img.data() {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Deserializes `.avimg` bytes, verifying magic, dimensions, length, and
/// the trailing checksum.
pub fn decode_avimg(bytes: &[u8]) -> io::Result<Image> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    if bytes.len() < 16 + 8 {
        return Err(bad("avimg: file shorter than header + checksum"));
    }
    if bytes[..8] != MAGIC {
        return Err(bad("avimg: bad magic"));
    }
    let w = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    let h = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    if w == 0 || h == 0 || w > 1 << 16 || h > 1 << 16 {
        return Err(bad("avimg: implausible dimensions"));
    }
    let body_len = 16 + w * h * 3 * 4;
    if bytes.len() != body_len + 8 {
        return Err(bad("avimg: length does not match dimensions"));
    }
    let stored = u64::from_le_bytes(bytes[body_len..].try_into().unwrap());
    if fnv1a64(&bytes[..body_len]) != stored {
        return Err(bad("avimg: checksum mismatch (file corrupted)"));
    }
    let mut img = Image::new(w, h);
    for (dst, src) in img
        .data_mut()
        .iter_mut()
        .zip(bytes[16..body_len].chunks_exact(4))
    {
        *dst = f32::from_le_bytes(src.try_into().unwrap());
    }
    Ok(img)
}

/// Writes an image as a `.avimg` file.
pub fn write_avimg(path: &Path, img: &Image) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, encode_avimg(img))
}

/// Reads a `.avimg` file.
pub fn read_avimg(path: &Path) -> io::Result<Image> {
    decode_avimg(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient(w: usize, h: usize) -> Image {
        let mut img = Image::new(w, h);
        for (i, v) in img.data_mut().iter_mut().enumerate() {
            *v = (i as f32 * 0.01).sin();
        }
        img
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let img = gradient(17, 9);
        let decoded = decode_avimg(&encode_avimg(&img)).unwrap();
        assert_eq!(img, decoded);
    }

    #[test]
    fn checksum_matches_encoded_trailer() {
        let img = gradient(8, 8);
        let bytes = encode_avimg(&img);
        let trailer = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        assert_eq!(avimg_checksum(&img), trailer);
    }

    #[test]
    fn any_single_byte_flip_is_rejected() {
        let img = gradient(5, 4);
        let bytes = encode_avimg(&img);
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0x01;
            assert!(decode_avimg(&b).is_err(), "flip at byte {i} not detected");
        }
    }

    #[test]
    fn truncation_and_trailing_garbage_are_rejected() {
        let img = gradient(5, 4);
        let bytes = encode_avimg(&img);
        assert!(decode_avimg(&bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(decode_avimg(&extra).is_err());
        assert!(decode_avimg(&[]).is_err());
    }
}
