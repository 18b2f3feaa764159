//! On-"disk" encodings for framework data, including the crafted-input
//! channel exploits ride in on.
//!
//! * `SIMG` — raw image: magic + geometry + pixels.
//! * `STSR` — tensor: magic + rank + dims + little-endian f32 payload.
//! * CSV — plain text for the tabular APIs.
//!
//! Any file may carry an `EVIL` trailer holding a wire-encoded
//! [`ExploitPayload`] — the simulation's stand-in for a malformed header
//! that triggers a real CVE. Loaders that are *registered as vulnerable*
//! to the payload's CVE "execute" it; patched loaders ignore it, which is
//! how we model same-input/different-version behaviour.

use crate::exploit::ExploitPayload;
use crate::image::Image;
use crate::tensor::Tensor;

const IMG_MAGIC: &[u8; 4] = b"SIMG";
const TSR_MAGIC: &[u8; 4] = b"STSR";
const EVIL_MAGIC: &[u8; 4] = b"EVIL";

/// Errors from file decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Wrong magic bytes.
    BadMagic,
    /// Structurally truncated or inconsistent file.
    Truncated,
    /// The embedded payload was corrupt (bad structure or checksum).
    BadPayload,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => f.write_str("bad magic"),
            DecodeError::Truncated => f.write_str("truncated file"),
            DecodeError::BadPayload => f.write_str("malformed exploit payload"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u32(bytes: &[u8], at: usize) -> Result<u32, DecodeError> {
    bytes
        .get(at..at + 4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .ok_or(DecodeError::Truncated)
}

fn append_trailer(out: &mut Vec<u8>, payload: Option<&ExploitPayload>) {
    if let Some(p) = payload {
        let wire = p.to_wire_bytes();
        out.extend_from_slice(EVIL_MAGIC);
        push_u32(out, wire.len() as u32);
        out.extend_from_slice(&wire);
    }
}

fn split_trailer(bytes: &[u8], body_end: usize) -> Result<Option<ExploitPayload>, DecodeError> {
    let rest = &bytes[body_end.min(bytes.len())..];
    if rest.is_empty() {
        return Ok(None);
    }
    if rest.len() < 8 || &rest[..4] != EVIL_MAGIC {
        return Ok(None); // junk trailer: ignore, like a lenient parser
    }
    let len = read_u32(rest, 4)? as usize;
    let wire = rest.get(8..8 + len).ok_or(DecodeError::Truncated)?;
    ExploitPayload::from_wire_bytes(wire)
        .map(Some)
        .ok_or(DecodeError::BadPayload)
}

/// Encodes an image, optionally smuggling an exploit payload.
pub fn encode_image(img: &Image, payload: Option<&ExploitPayload>) -> Vec<u8> {
    let mut out = Vec::with_capacity(img.data.len() + 32);
    out.extend_from_slice(IMG_MAGIC);
    push_u32(&mut out, img.w);
    push_u32(&mut out, img.h);
    push_u32(&mut out, img.ch);
    out.extend_from_slice(&img.data);
    append_trailer(&mut out, payload);
    out
}

/// Decodes an image plus any smuggled payload.
///
/// # Errors
///
/// Structural errors per [`DecodeError`].
pub fn decode_image(bytes: &[u8]) -> Result<(Image, Option<ExploitPayload>), DecodeError> {
    if bytes.len() < 16 || &bytes[..4] != IMG_MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let w = read_u32(bytes, 4)?;
    let h = read_u32(bytes, 8)?;
    let ch = read_u32(bytes, 12)?;
    let len = (w as usize) * (h as usize) * (ch as usize);
    let data = bytes.get(16..16 + len).ok_or(DecodeError::Truncated)?;
    let payload = split_trailer(bytes, 16 + len)?;
    Ok((Image::from_bytes(w, h, ch, data.to_vec()), payload))
}

/// Encodes a tensor, optionally smuggling an exploit payload.
pub fn encode_tensor(t: &Tensor, payload: Option<&ExploitPayload>) -> Vec<u8> {
    let mut out = Vec::with_capacity(t.len() * 4 + 32);
    out.extend_from_slice(TSR_MAGIC);
    push_u32(&mut out, t.shape.len() as u32);
    for d in &t.shape {
        push_u32(&mut out, *d);
    }
    out.extend_from_slice(&t.to_bytes());
    append_trailer(&mut out, payload);
    out
}

/// Decodes a tensor plus any smuggled payload.
///
/// # Errors
///
/// Structural errors per [`DecodeError`].
pub fn decode_tensor(bytes: &[u8]) -> Result<(Tensor, Option<ExploitPayload>), DecodeError> {
    if bytes.len() < 8 || &bytes[..4] != TSR_MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let rank = read_u32(bytes, 4)? as usize;
    let mut shape = Vec::with_capacity(rank);
    for i in 0..rank {
        shape.push(read_u32(bytes, 8 + 4 * i)?);
    }
    let data_at = 8 + 4 * rank;
    let elems: usize = shape.iter().map(|&d| d as usize).product();
    let data = bytes
        .get(data_at..data_at + elems * 4)
        .ok_or(DecodeError::Truncated)?;
    let payload = split_trailer(bytes, data_at + elems * 4)?;
    Ok((Tensor::from_bytes(&shape, data), payload))
}

/// Scans an *unstructured* blob (cascade files, protos, CSVs) for an
/// `EVIL` trailer anywhere in the byte stream. Returns the payload if a
/// well-formed one is found.
pub fn scan_payload(bytes: &[u8]) -> Option<ExploitPayload> {
    let pos = bytes.windows(4).rposition(|w| w == EVIL_MAGIC)?;
    let len = read_u32(bytes, pos + 4).ok()? as usize;
    let wire = bytes.get(pos + 8..pos + 8 + len)?;
    ExploitPayload::from_wire_bytes(wire)
}

/// Encodes a numeric table as CSV text.
pub fn encode_csv(rows: &[Vec<f64>]) -> Vec<u8> {
    let mut out = String::new();
    for row in rows {
        let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out.into_bytes()
}

/// Decodes CSV text into numeric rows (non-numeric cells become 0).
pub fn decode_csv(bytes: &[u8]) -> Vec<Vec<f64>> {
    String::from_utf8_lossy(bytes)
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            l.split(',')
                .map(|c| c.trim().parse().unwrap_or(0.0))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exploit::ExploitAction;

    fn sample_payload() -> ExploitPayload {
        ExploitPayload {
            cve: "CVE-2017-12597".into(),
            actions: vec![ExploitAction::CrashSelf],
        }
    }

    #[test]
    fn image_roundtrip_clean() {
        let mut img = Image::new(3, 2, 3);
        img.put(1, 1, 2, 77);
        let bytes = encode_image(&img, None);
        let (back, payload) = decode_image(&bytes).unwrap();
        assert_eq!(back, img);
        assert!(payload.is_none());
    }

    #[test]
    fn image_roundtrip_with_payload() {
        let img = Image::new(2, 2, 1);
        let bytes = encode_image(&img, Some(&sample_payload()));
        let (back, payload) = decode_image(&bytes).unwrap();
        assert_eq!(back, img);
        assert_eq!(payload.unwrap().cve, "CVE-2017-12597");
    }

    #[test]
    fn image_decode_errors() {
        assert_eq!(decode_image(b"JPEG"), Err(DecodeError::BadMagic));
        let mut bytes = encode_image(&Image::new(4, 4, 1), None);
        bytes.truncate(20);
        assert_eq!(decode_image(&bytes), Err(DecodeError::Truncated));
    }

    #[test]
    fn tensor_roundtrip_with_payload() {
        let t = Tensor::generate(&[2, 3], |i| i as f32 - 1.5);
        let bytes = encode_tensor(&t, Some(&sample_payload()));
        let (back, payload) = decode_tensor(&bytes).unwrap();
        assert_eq!(back, t);
        assert!(payload.is_some());
    }

    #[test]
    fn corrupt_payload_is_a_decode_error() {
        let img = Image::new(1, 1, 1);
        let mut bytes = encode_image(&img, Some(&sample_payload()));
        let n = bytes.len();
        bytes[n - 5] = b'!'; // smash the payload checksum
        assert_eq!(decode_image(&bytes), Err(DecodeError::BadPayload));
    }

    #[test]
    fn junk_trailer_is_ignored() {
        let img = Image::new(1, 1, 1);
        let mut bytes = encode_image(&img, None);
        bytes.extend_from_slice(b"garbage-trailer");
        let (_, payload) = decode_image(&bytes).unwrap();
        assert!(payload.is_none());
    }

    #[test]
    fn csv_roundtrip() {
        let rows = vec![vec![1.0, 2.5], vec![3.0, -4.0]];
        let bytes = encode_csv(&rows);
        assert_eq!(decode_csv(&bytes), rows);
        assert_eq!(
            decode_csv(b"a,b\n1,2\n"),
            vec![vec![0.0, 0.0], vec![1.0, 2.0]]
        );
    }
}
