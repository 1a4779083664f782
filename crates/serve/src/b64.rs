//! Minimal standard-alphabet base64, for shipping binary traces over
//! the line-JSON control protocol.
//!
//! The wire protocol is one JSON object per line, so binary payloads
//! must ride inside a JSON string. Standard padded base64 (RFC 4648,
//! `+/` alphabet, `=` padding) keeps uploads interoperable with
//! `base64(1)` and every client library, without pulling a dependency
//! into the daemon.

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encode `data` as standard padded base64.
pub fn encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len().div_ceil(3) * 4);
    for chunk in data.chunks(3) {
        let n = ((chunk[0] as u32) << 16)
            | ((chunk.get(1).copied().unwrap_or(0) as u32) << 8)
            | chunk.get(2).copied().unwrap_or(0) as u32;
        out.push(ALPHABET[(n >> 18) as usize & 63] as char);
        out.push(ALPHABET[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 { ALPHABET[(n >> 6) as usize & 63] as char } else { '=' });
        out.push(if chunk.len() > 2 { ALPHABET[n as usize & 63] as char } else { '=' });
    }
    out
}

/// Decode standard padded base64. Rejects non-alphabet bytes, lengths
/// that are not a multiple of four, interior padding, and non-zero bits
/// under the padding (`"QR=="` would otherwise alias `"QQ=="`) — uploads
/// are state, so anything ambiguous is an error, not a guess.
pub fn decode(s: &str) -> Result<Vec<u8>, String> {
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err(format!("base64 length {} is not a multiple of 4", bytes.len()));
    }
    let chunks = bytes.len() / 4;
    let mut out = Vec::with_capacity(chunks * 3);
    for (i, chunk) in bytes.chunks(4).enumerate() {
        let last = i + 1 == chunks;
        let mut vals = [0u32; 4];
        let mut pad = 0usize;
        for (j, &c) in chunk.iter().enumerate() {
            if c == b'=' {
                if !last || j < 2 {
                    return Err("base64 padding may only end the final group".into());
                }
                pad += 1;
            } else {
                if pad > 0 {
                    return Err("base64 padding may only end the final group".into());
                }
                vals[j] = match c {
                    b'A'..=b'Z' => (c - b'A') as u32,
                    b'a'..=b'z' => (c - b'a' + 26) as u32,
                    b'0'..=b'9' => (c - b'0' + 52) as u32,
                    b'+' => 62,
                    b'/' => 63,
                    _ => return Err(format!("invalid base64 byte {:?}", c as char)),
                };
            }
        }
        let n = (vals[0] << 18) | (vals[1] << 12) | (vals[2] << 6) | vals[3];
        // One pad drops the low 8 bits, two drop the low 16: they must be zero.
        if n & ((1 << (8 * pad)) - 1) != 0 {
            return Err("base64 pad bits of the final group must be zero".into());
        }
        out.push((n >> 16) as u8);
        if pad < 2 {
            out.push((n >> 8) as u8);
        }
        if pad < 1 {
            out.push(n as u8);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trips_all_padding_lengths() {
        for len in 0..64usize {
            let data: Vec<u8> =
                (0..len).map(|i| (i as u8).wrapping_mul(37).wrapping_add(5)).collect();
            let enc = encode(&data);
            assert_eq!(enc.len() % 4, 0, "len {len}");
            assert_eq!(decode(&enc).unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn matches_known_vectors() {
        // RFC 4648 test vectors.
        assert_eq!(encode(b""), "");
        assert_eq!(encode(b"f"), "Zg==");
        assert_eq!(encode(b"fo"), "Zm8=");
        assert_eq!(encode(b"foo"), "Zm9v");
        assert_eq!(encode(b"foob"), "Zm9vYg==");
        assert_eq!(encode(b"fooba"), "Zm9vYmE=");
        assert_eq!(encode(b"foobar"), "Zm9vYmFy");
        assert_eq!(decode("Zm9vYmFy").unwrap(), b"foobar");
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in
            ["Zg", "Zg=", "Z===", "=Zg=", "Zg==Zg==", "Zm9v!A==", "Zm 9v", "QR==", "Zm9=", "Zh=="]
        {
            assert!(decode(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    /// Draw strings mostly from the base64 alphabet plus `=`, so the
    /// cases reach the padding and pad-bit checks rather than failing on
    /// the first stray byte.
    fn b64ish(picks: &[u8]) -> String {
        const CHARS: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/==!";
        picks.iter().map(|&p| CHARS[p as usize % CHARS.len()] as char).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512 })]

        #[test]
        fn decode_never_panics(
            raw in prop::collection::vec(any::<u8>(), 0..24),
            picks in prop::collection::vec(any::<u8>(), 0..24),
        ) {
            let _ = decode(&String::from_utf8_lossy(&raw));
            let _ = decode(&b64ish(&picks));
        }

        #[test]
        fn decode_inverts_encode(data in prop::collection::vec(any::<u8>(), 0..48)) {
            assert_eq!(decode(&encode(&data)).unwrap(), data);
        }

        #[test]
        fn nonzero_pad_bits_are_rejected(
            data in prop::collection::vec(any::<u8>(), 1..32),
            flip in any::<u8>(),
        ) {
            let enc = encode(&data);
            let pad = enc.bytes().rev().take_while(|&c| c == b'=').count();
            if pad > 0 {
                // The last data symbol carries 2 (one pad) or 4 (two pads)
                // pad bits; set a non-zero pattern in them.
                let pad_bits = if pad == 1 { 2 } else { 4 };
                let low = 1 + u32::from(flip) % ((1 << pad_bits) - 1);
                let at = enc.len() - pad - 1;
                let sym = enc.as_bytes()[at];
                let val = ALPHABET.iter().position(|&c| c == sym).unwrap() as u32 | low;
                let mut bad = enc.into_bytes();
                bad[at] = ALPHABET[val as usize];
                let bad = String::from_utf8(bad).unwrap();
                assert!(decode(&bad).is_err(), "{bad:?} has non-zero pad bits");
            }
        }
    }
}
